package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"mcspeedup/internal/core"
	"mcspeedup/internal/fleet"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// jsonRat accepts a speed/factor parameter as either a JSON number
// (converted like the CLI flags: rat.FromFloat with denominator 2^24) or
// a string in the canonical rational forms ("2", "4/3", "+Inf").
type jsonRat struct{ rat.Rat }

func (j *jsonRat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := rat.Parse(s)
		if err != nil {
			return err
		}
		j.Rat = v
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("want a number or a rational string: %w", err)
	}
	j.Rat = rat.FromFloat(f, 1<<24)
	return nil
}

// ratKey renders an optional rational for a cache key.
func ratKey(r *jsonRat) string {
	if r == nil {
		return "-"
	}
	return r.String()
}

// tasksField is the shared "tasks" member of every request envelope; a
// request body that is a bare JSON array is treated as this field alone.
type tasksField struct {
	Tasks json.RawMessage `json:"tasks"`
}

func (t *tasksField) setTasks(raw json.RawMessage) { t.Tasks = raw }

// readBody reads the whole request body. A body over the MaxBodyBytes
// cap (the http.MaxBytesReader requirePOST installs) is answered 413,
// any other read failure 400; ok is false once that answer is written.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(r.Body)
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the service cap of %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	return nil, false
}

// decodeRequest reads the request body into the envelope, answering the
// request itself (413 or 400) and returning false when it cannot. Bodies
// starting with '[' are interpreted as a bare task-set array (the
// mcs-analyze input format); envelopes are decoded strictly, rejecting
// unknown fields.
func decodeRequest(w http.ResponseWriter, r *http.Request, envelope interface{ setTasks(json.RawMessage) }) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := decodeBody(body, envelope); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// decodeBody is decodeRequest over raw bytes; /v1/batch reuses it per
// item so every item accepts exactly the /v1/analyze body formats.
func decodeBody(body []byte, envelope interface{ setTasks(json.RawMessage) }) error {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return fmt.Errorf("empty request body")
	}
	if trimmed[0] == '[' {
		envelope.setTasks(json.RawMessage(trimmed))
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(envelope); err != nil {
		return fmt.Errorf("bad request envelope: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request envelope")
	}
	return nil
}

// parseTasks decodes and validates the task set of a request.
func parseTasks(raw json.RawMessage) (task.Set, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing \"tasks\"")
	}
	return task.ParseJSON(raw)
}

// transformOpts mirrors the mcs-analyze transform flags: eq. (3)
// termination, eq. (14) degradation, and eq. (13) deadline shortening
// (explicit x or the minimal feasible one).
type transformOpts struct {
	X         *jsonRat `json:"x,omitempty"`
	MinX      bool     `json:"minx,omitempty"`
	Y         *jsonRat `json:"y,omitempty"`
	Terminate bool     `json:"terminate,omitempty"`
}

// validate rejects contradictory combinations, mirroring the CLI.
func (o transformOpts) validate() error {
	if o.X != nil && o.MinX {
		return fmt.Errorf("\"x\" and \"minx\" are mutually exclusive: minx computes the minimal feasible x")
	}
	if o.Terminate && o.Y != nil {
		return fmt.Errorf("\"terminate\" and \"y\" are mutually exclusive: termination is the y → ∞ limit of degradation")
	}
	return nil
}

// apply performs the transforms in the CLI's order: terminate, degrade,
// then shorten deadlines.
func (o transformOpts) apply(set task.Set) (task.Set, error) {
	var err error
	if o.Terminate {
		set = set.TerminateLO()
	}
	if o.Y != nil {
		if set, err = set.DegradeLO(o.Y.Rat); err != nil {
			return nil, err
		}
	}
	switch {
	case o.MinX:
		if _, set, err = core.MinimalX(set); err != nil {
			return nil, err
		}
	case o.X != nil:
		if set, err = set.ShortenHIDeadlines(o.X.Rat); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// keyPart renders the transforms canonically for the cache key.
func (o transformOpts) keyPart() string {
	return fmt.Sprintf("x=%s|minx=%t|y=%s|terminate=%t", ratKey(o.X), o.MinX, ratKey(o.Y), o.Terminate)
}

// --- POST /v1/analyze ---

type analyzeRequest struct {
	tasksField
	Speed *jsonRat `json:"speed,omitempty"`
	transformOpts
}

// analyzeCacheKey is the result-cache key of one full analysis:
// fingerprint, speed, and the canonical transform string. /v1/analyze,
// each /v1/batch item, and /v1/session reports all derive their keys
// here, which is what makes their cached bytes interchangeable — a
// session whose edit stream reaches a set some /v1/analyze call already
// analyzed (transforms defaulted) serves that call's exact bytes.
func analyzeCacheKey(fingerprint string, speed rat.Rat, transformKey string) string {
	return fmt.Sprintf("analyze|%s|speed=%s|%s", fingerprint, speed, transformKey)
}

// analyzeJob validates an analyze request and returns its cache key and
// its compute closure.
// /v1/analyze and each /v1/batch item go through this one path, so a
// batch item's key — and therefore its cached bytes — is identical to
// the equivalent individual call's.
func analyzeJob(req analyzeRequest) (string, func() ([]byte, error), error) {
	if err := req.validate(); err != nil {
		return "", nil, err
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		return "", nil, err
	}
	speed := rat.Two
	if req.Speed != nil {
		speed = req.Speed.Rat
	}
	key := analyzeCacheKey(set.Fingerprint(), speed, req.keyPart())
	return key, func() ([]byte, error) {
		transformed, err := req.apply(set)
		if err != nil {
			return nil, err
		}
		report, err := core.Analyze(transformed, speed)
		if err != nil {
			return nil, err
		}
		return report.MarshalIndent()
	}, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	key, fn, err := analyzeJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveComputed(w, r, key, fn)
}

// --- POST /v1/speedup ---

type speedupRequest struct {
	tasksField
	transformOpts
}

type speedupResponse struct {
	Fingerprint string     `json:"fingerprint"`
	Speedup     speedupDoc `json:"speedup"`
}

type speedupDoc struct {
	Value        rat.Rat   `json:"value"`
	LowerBound   rat.Rat   `json:"lowerBound"`
	Exact        bool      `json:"exact"`
	WitnessDelta task.Time `json:"witnessDelta"`
	Events       int       `json:"events"`
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	var req speedupRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := fmt.Sprintf("speedup|%s|%s", set.Fingerprint(), req.keyPart())
	s.serveComputed(w, r, key, func() ([]byte, error) {
		transformed, err := req.apply(set)
		if err != nil {
			return nil, err
		}
		sp, err := core.MinSpeedup(transformed)
		if err != nil {
			return nil, err
		}
		return json.MarshalIndent(speedupResponse{
			Fingerprint: transformed.Fingerprint(),
			Speedup: speedupDoc{
				Value:        sp.Speedup,
				LowerBound:   sp.LowerBound,
				Exact:        sp.Exact,
				WitnessDelta: sp.WitnessDelta,
				Events:       sp.Events,
			},
		}, "", "  ")
	})
}

// --- POST /v1/reset ---

type resetRequest struct {
	tasksField
	Speed *jsonRat `json:"speed,omitempty"`
	transformOpts
}

type resetResponse struct {
	Fingerprint string   `json:"fingerprint"`
	Speed       rat.Rat  `json:"speed"`
	Reset       resetDoc `json:"reset"`
}

type resetDoc struct {
	Value  rat.Rat `json:"value"`
	Events int     `json:"events"`
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	var req resetRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	speed := rat.Two
	if req.Speed != nil {
		speed = req.Speed.Rat
	}
	key := fmt.Sprintf("reset|%s|speed=%s|%s", set.Fingerprint(), speed, req.keyPart())
	s.serveComputed(w, r, key, func() ([]byte, error) {
		transformed, err := req.apply(set)
		if err != nil {
			return nil, err
		}
		rr, err := core.ResetTime(transformed, speed)
		if err != nil {
			return nil, err
		}
		return json.MarshalIndent(resetResponse{
			Fingerprint: transformed.Fingerprint(),
			Speed:       speed,
			Reset:       resetDoc{Value: rr.Reset, Events: rr.Events},
		}, "", "  ")
	})
}

// --- POST /v1/simulate ---

type simulateRequest struct {
	tasksField
	// Speed is the HI-mode speed factor s (default 2).
	Speed *jsonRat `json:"speed,omitempty"`
	// Horizon is the workload horizon in ticks (default 20 max-periods,
	// capped by Config.MaxSimHorizon).
	Horizon int64 `json:"horizon,omitempty"`
	// Workload selects the release pattern: "sync" (synchronous periodic,
	// every HI job overruns — the default), "random" (sporadic with
	// per-job overrun probability), or "burst" (§IV bursts with a minimum
	// overrun gap).
	Workload string `json:"workload,omitempty"`
	// Seed drives the random/burst generators (default 1); responses are
	// deterministic per seed and therefore cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Overrun is the per-HI-job overrun probability for "random"
	// (default 0.3).
	Overrun *float64 `json:"overrun,omitempty"`
	// Gap is the minimum spacing between overruns for "burst" (ticks).
	Gap int64 `json:"gap,omitempty"`
	// Budget is the HI-mode wall-clock budget in ticks (0 = unlimited).
	Budget int64 `json:"budget,omitempty"`
	// CollectJobs and CollectTrace enable per-job records and Gantt
	// trace segments in the response.
	CollectJobs  bool `json:"collectJobs,omitempty"`
	CollectTrace bool `json:"collectTrace,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Workload == "" {
		req.Workload = "sync"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	overrun := 0.3
	if req.Overrun != nil {
		overrun = *req.Overrun
	}
	if overrun < 0 || overrun > 1 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("overrun probability %g outside [0,1]", overrun))
		return
	}
	horizon := task.Time(req.Horizon)
	if horizon <= 0 {
		horizon = 20 * set.MaxPeriod()
	}
	if horizon > s.cfg.MaxSimHorizon {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("horizon %d exceeds the service cap of %d ticks", horizon, s.cfg.MaxSimHorizon))
		return
	}
	speed := rat.Two
	if req.Speed != nil {
		speed = req.Speed.Rat
	}
	switch req.Workload {
	case "sync", "random":
	case "burst":
		if req.Gap <= 0 {
			writeError(w, http.StatusBadRequest, "\"burst\" workload requires a positive \"gap\"")
			return
		}
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown workload %q (want \"sync\", \"random\", or \"burst\")", req.Workload))
		return
	}

	key := fmt.Sprintf("simulate|%s|speed=%s|horizon=%d|workload=%s|seed=%d|overrun=%g|gap=%d|budget=%d|jobs=%t|trace=%t",
		set.Fingerprint(), speed, horizon, req.Workload, req.Seed, overrun, req.Gap, req.Budget,
		req.CollectJobs, req.CollectTrace)
	s.serveComputed(w, r, key, func() ([]byte, error) {
		var w sim.Workload
		switch req.Workload {
		case "sync":
			w = sim.SynchronousPeriodic(set, horizon, sim.AlwaysOverrun)
		case "random":
			w = sim.RandomSporadic(rand.New(rand.NewSource(req.Seed)), set, horizon, overrun)
		case "burst":
			w = sim.BurstOverruns(rand.New(rand.NewSource(req.Seed)), set, horizon, task.Time(req.Gap))
		}
		cfg := sim.Config{
			Speedup:      speed,
			CollectJobs:  req.CollectJobs,
			CollectTrace: req.CollectTrace,
		}
		if req.Budget > 0 {
			cfg.Budget = rat.FromInt64(req.Budget)
		}
		res, err := sim.Run(set, w, cfg)
		if err != nil {
			return nil, err
		}
		return sim.ExportJSON(set, res)
	})
}

// --- POST /v1/fleet ---

type fleetRequest struct {
	tasksField
	// Runs is the number of Monte-Carlo replicates (required, capped by
	// Config.MaxFleetRuns).
	Runs int `json:"runs"`
	// Speed is the HI-mode speed factor s (default 2).
	Speed *jsonRat `json:"speed,omitempty"`
	// Seed keys every per-(replicate, task) sample stream (default 1);
	// the summary is deterministic per seed and therefore cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Horizon is the sampled release window per replicate in ticks
	// (default 20 max-periods, capped by Config.MaxSimHorizon).
	Horizon int64 `json:"horizon,omitempty"`
	// Budget is the HI-mode wall-clock budget in ticks (0 = unlimited).
	Budget int64 `json:"budget,omitempty"`
	// Overrun is the per-HI-job ACET overrun probability (default the
	// gen.DefaultACET model's).
	Overrun *float64 `json:"overrun,omitempty"`
}

// handleFleet runs a Monte-Carlo fleet through the admission pool. The
// fleet itself runs single-worker inside its slot — concurrency is the
// pool's to allocate across requests, not one request's to grab — and
// the summary bytes are identical to cmd/mcs-sim -fleet -json.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req fleetRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Runs <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("\"runs\" %d must be positive", req.Runs))
		return
	}
	if req.Runs > s.cfg.MaxFleetRuns {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d runs exceed the service cap of %d", req.Runs, s.cfg.MaxFleetRuns))
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	acet := gen.DefaultACET()
	if req.Overrun != nil {
		acet.OverrunProb = *req.Overrun
	}
	if err := acet.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	horizon := task.Time(req.Horizon)
	if horizon <= 0 {
		horizon = 20 * set.MaxPeriod()
	}
	if horizon > s.cfg.MaxSimHorizon {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("horizon %d exceeds the service cap of %d ticks", horizon, s.cfg.MaxSimHorizon))
		return
	}
	speed := rat.Two
	if req.Speed != nil {
		speed = req.Speed.Rat
	}

	key := fmt.Sprintf("fleet|%s|runs=%d|speed=%s|seed=%d|horizon=%d|budget=%d|overrun=%g",
		set.Fingerprint(), req.Runs, speed, req.Seed, horizon, req.Budget, acet.OverrunProb)
	s.serveComputed(w, r, key, func() ([]byte, error) {
		p := fleet.Params{
			Set:     set,
			Runs:    req.Runs,
			Seed:    req.Seed,
			Speedup: speed,
			Horizon: horizon,
			Workers: 1,
			ACET:    acet,
		}
		if req.Budget > 0 {
			p.Budget = rat.FromInt64(req.Budget)
		}
		sum, err := fleet.Run(p)
		if err != nil {
			return nil, err
		}
		s.metrics.recordFleet(int64(req.Runs))
		return sum.JSON()
	})
}
