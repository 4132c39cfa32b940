package server

// POST /v1/session — server-side incremental analysis sessions.
//
// A session holds an analyzed task-set state (core.Session) across
// requests: instead of re-posting the whole set after each design tweak,
// clients create a session once and stream edits to it; each edit drops
// only the cached demand aggregates it touches, and the next report runs
// the same Theorem-2 walk as /v1/analyze, warm-started from the previous
// report's witness. One endpoint, dispatched on "action":
//
//	{"action":"create","tasks":[...],"speed":2,...}  → id + report
//	{"action":"edit","session":id,"edits":[...]}     → report after edits
//	{"action":"report","session":id}                 → current report
//	{"action":"close","session":id}                  → frees the session
//
// A bare task array (or an envelope without "action") creates a session,
// mirroring the other endpoints' lenient input handling. Create accepts
// the /v1/analyze transform options; they shape the initial set only —
// subsequent edits operate on the transformed tasks.
//
// Reports are byte-identical to /v1/analyze on the session's current
// set, and they share its cache: the response's "report" bytes are
// cached under the same key an untransformed /v1/analyze of that set
// uses, so an edit stream that returns to a previously analyzed set —
// or to a set any other client analyzed — is a cache hit, no analysis
// run at all. Edits are applied all-or-nothing: a failing edit list
// leaves the session unchanged and returns 400.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"mcspeedup/internal/core"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// session is one registry entry. mu serializes all use of core (a
// core.Session is not safe for concurrent use); lastUse is the LRU
// clock, guarded by the registry's lock, not mu.
type session struct {
	mu   sync.Mutex
	id   string
	core *core.Session

	lastUse uint64
}

// sessionRegistry owns the live sessions: id assignment, lookup with LRU
// touch, and least-recently-used eviction beyond the configured cap.
type sessionRegistry struct {
	mu      sync.Mutex
	seq     uint64
	tick    uint64
	entries map[string]*session
	max     int
}

func newSessionRegistry(max int) *sessionRegistry {
	return &sessionRegistry{entries: make(map[string]*session), max: max}
}

// add registers a fresh session, evicting the least-recently-used entry
// when the registry is full. evicted reports whether one was dropped.
func (r *sessionRegistry) add(cs *core.Session) (sn *session, evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.max {
		var victim *session
		for _, e := range r.entries {
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		delete(r.entries, victim.id)
		evicted = true
	}
	r.seq++
	r.tick++
	sn = &session{id: fmt.Sprintf("s-%d", r.seq), core: cs, lastUse: r.tick}
	r.entries[sn.id] = sn
	return sn, evicted
}

// lookup returns the session and touches its LRU clock.
func (r *sessionRegistry) lookup(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sn, ok := r.entries[id]
	if ok {
		r.tick++
		sn.lastUse = r.tick
	}
	return sn, ok
}

// remove deletes the session, reporting whether it existed.
func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[id]
	delete(r.entries, id)
	return ok
}

// live returns the number of registered sessions.
func (r *sessionRegistry) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

type sessionRequest struct {
	tasksField
	Action  string      `json:"action,omitempty"`
	Session string      `json:"session,omitempty"`
	Speed   *jsonRat    `json:"speed,omitempty"`
	Edits   []task.Edit `json:"edits,omitempty"`
	transformOpts
}

// sessionResponse is the create/edit/report response; Report carries the
// exact /v1/analyze response bytes for the session's current set.
type sessionResponse struct {
	Session       string          `json:"session"`
	Fingerprint   string          `json:"fingerprint"`
	EditsApplied  int             `json:"editsApplied"`
	DeltaAnalyses int             `json:"deltaAnalyses"`
	Recomputed    bool            `json:"recomputed"`
	Cache         string          `json:"cache"`
	Report        json.RawMessage `json:"report"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	action := req.Action
	if action == "" && len(req.Tasks) > 0 {
		action = "create"
	}
	switch action {
	case "create":
		s.sessionCreate(w, r, req)
	case "edit", "report":
		sn, ok := s.sessions.lookup(req.Session)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
			return
		}
		if action == "edit" {
			if len(req.Edits) == 0 {
				writeError(w, http.StatusBadRequest, "\"edit\" requires a non-empty \"edits\" list")
				return
			}
			if err := s.sessionEdit(sn, req.Edits); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		s.serveSessionReport(w, r, sn)
	case "close":
		if !s.sessions.remove(req.Session) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"session": req.Session, "closed": true})
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown action %q (want \"create\", \"edit\", \"report\", or \"close\")", req.Action))
	}
}

func (s *Server) sessionCreate(w http.ResponseWriter, r *http.Request, req sessionRequest) {
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	set, err := parseTasks(req.Tasks)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	set, err = req.apply(set)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	speed := rat.Two
	if req.Speed != nil {
		speed = req.Speed.Rat
	}
	cs, err := core.NewSession(set, speed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sn, evicted := s.sessions.add(cs)
	s.metrics.recordSessionCreate(evicted)
	s.serveSessionReport(w, r, sn)
}

// sessionEdit applies the edits all-or-nothing: the list is dry-run
// against a clone first, so a failing edit leaves the session untouched.
func (s *Server) sessionEdit(sn *session, edits []task.Edit) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if _, err := sn.core.Set().ApplyEdits(edits...); err != nil {
		return err
	}
	if err := sn.core.Apply(edits...); err != nil {
		// The dry run accepted the stream; the live state cannot refuse it.
		return fmt.Errorf("session state diverged from dry run: %w", err)
	}
	s.metrics.recordSessionEdits(len(edits))
	return nil
}

// serveSessionReport computes (or fetches) the report for the session's
// current state and writes the response envelope.
func (s *Server) serveSessionReport(w http.ResponseWriter, r *http.Request, sn *session) {
	body, hit, recomputed, err := s.sessionReport(r.Context(), sn)
	if err != nil {
		if errors.Is(err, errSaturated) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, errorStatus(err), err.Error())
		return
	}
	sn.mu.Lock()
	resp := sessionResponse{
		Session:       sn.id,
		Fingerprint:   sn.core.Fingerprint(),
		EditsApplied:  sn.core.EditsApplied(),
		DeltaAnalyses: sn.core.DeltaAnalyses(),
		Recomputed:    recomputed,
		Cache:         "miss",
		Report:        json.RawMessage(body),
	}
	sn.mu.Unlock()
	if hit {
		resp.Cache = "hit"
		s.metrics.recordSessionCacheHit()
	}
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	out, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Write(append(out, '\n'))
}

// sessionReport returns the /v1/analyze bytes for the session's current
// set: from the shared result cache when the state was analyzed before
// (by any session or a one-shot call), otherwise by running the
// session's incremental re-analysis under an admission slot. The slot is
// acquired with no session lock held (lockcheck: no blocking admission
// under a mutex); the state is re-keyed after the wait in case edits
// raced in — the report served is always the session's state at
// analysis time.
func (s *Server) sessionReport(ctx context.Context, sn *session) (body []byte, hit, recomputed bool, err error) {
	// The key is the one an untransformed /v1/analyze of the current set
	// uses, so session reports and one-shot analyses share cache entries.
	sn.mu.Lock()
	key := analyzeCacheKey(sn.core.Fingerprint(), sn.core.Speed(), transformOpts{}.keyPart())
	cached, ok := s.results.Get(key)
	sn.mu.Unlock()
	if ok {
		return cached, true, false, nil
	}

	admit := ctx
	if s.cfg.AdmissionWait > 0 {
		var cancel context.CancelFunc
		admit, cancel = context.WithTimeout(ctx, s.cfg.AdmissionWait)
		defer cancel()
	}
	if err := s.pool.Acquire(admit); err != nil {
		if ctx.Err() != nil {
			return nil, false, false, fmt.Errorf("request deadline exceeded: %w", ctx.Err())
		}
		return nil, false, false, errSaturated
	}
	defer s.pool.Release()

	sn.mu.Lock()
	defer sn.mu.Unlock()
	key = analyzeCacheKey(sn.core.Fingerprint(), sn.core.Speed(), transformOpts{}.keyPart())
	if cached, ok := s.results.Get(key); ok {
		return cached, true, false, nil
	}
	preDeltas := sn.core.DeltaAnalyses()
	body, err = runAnalysis(func() ([]byte, error) {
		rep, rec, err := sn.core.Report()
		if err != nil {
			return nil, err
		}
		recomputed = rec
		return rep.MarshalIndent()
	})
	if err != nil {
		return nil, false, false, err
	}
	if recomputed {
		s.metrics.recordSessionAnalysis(sn.core.DeltaAnalyses() > preDeltas)
	}
	s.results.Put(key, body)
	return body, false, recomputed, nil
}
