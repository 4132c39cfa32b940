package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcspeedup/internal/cache"
	"mcspeedup/internal/core"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/server"
	"mcspeedup/internal/stats"
	"mcspeedup/internal/task"
)

// Substream points (gen.Substream's second argument) of the seeded
// input streams, one per stream so no two share randomness.
const (
	pointZipfCorpus = 10 + iota
	pointZipfWarmup
	pointZipfStage
	pointSweepSet
	pointFleet
)

const (
	// zipfCorpusSets is 4× the server's default 1024-entry result
	// cache, so the steady state has a hit-heavy head and a miss tail
	// that keeps evicting.
	zipfCorpusSets = 4096
	zipfExponent   = 1.1
	// zipfFixedRate is the fixed offered rate of the p50 stage, about
	// half of rps_at_slo on a 2-core x86-64 host.
	zipfFixedRate = 2000.0
	// zipfWindow splits the fixed-rate stage into windows for p50_ms
	// (see outcome.windowed).
	zipfWindow = 500 * time.Millisecond
	// sloLatency is mcs-load's default -slo: a ladder rung passes when
	// its p99 latency stays within it.
	sloLatency = 50 * time.Millisecond
	// rungWindows: a rung's p99 is taken over this many windows (see
	// windowQuantile), so one stall of the host does not fail a rung.
	rungWindows = 4
	// The ladder climbs by ladderStep per rung from zipfFixedRate for
	// at most ladderRungs rungs, then bisects the bracket around the
	// first failing rung bisectRungs times.
	ladderStep  = 1.25
	ladderRungs = 6
	bisectRungs = 3
	// replayRequests caps the in-process replay of the traced run.
	replayRequests = 3000
	// The phases the benchmark times around its own calls must cover
	// this share of the replayed handler time (the rest is routing,
	// body reads, admission, coalescing and response writes).
	phaseSumMin = 0.6
	phaseSumMax = 1.15
)

// zipfUBounds are the corpus utilization bounds, cycled over the sets.
var zipfUBounds = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// zipfCorpus is serve-zipf's input: request bodies (bare task-set
// arrays, the /v1/analyze body format) and the response each must get.
type zipfCorpus struct {
	bodies [][]byte
	want   [][]byte // core.Analyze(set, 2).MarshalIndent() + "\n"
}

// buildZipfCorpus generates n sets from the seed and precomputes each
// expected response body on workers goroutines.
func buildZipfCorpus(seed int64, n, workers int) (*zipfCorpus, error) {
	c := &zipfCorpus{bodies: make([][]byte, n), want: make([][]byte, n)}
	params := gen.Defaults()
	sets := make([]task.Set, n)
	for i := range sets {
		sets[i] = params.MustSet(gen.SubRand(seed, pointZipfCorpus, i), zipfUBounds[i%len(zipfUBounds)])
		body, err := json.Marshal(sets[i])
		if err != nil {
			return nil, err
		}
		c.bodies[i] = body
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				body, err := expectedReport(sets[i])
				if err != nil {
					errs[w] = fmt.Errorf("corpus set %d: %w", i, err)
					return
				}
				c.want[i] = body
			}
		}(w)
	}
	wg.Wait()
	return c, errors.Join(errs...)
}

// expectedReport is the byte-exact /v1/analyze response for a set at the
// default speed 2, computed without the server.
func expectedReport(s task.Set) ([]byte, error) {
	rep, err := core.Analyze(s, rat.Two)
	if err != nil {
		return nil, err
	}
	body, err := rep.MarshalIndent()
	return append(body, '\n'), err
}

// checkServed is serve-zipf's correctness check of one response.
func checkServed(status int, got, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, got)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("response body differs from core.Analyze(set, 2).MarshalIndent()")
	}
	return nil
}

// requestStream draws n corpus indices from a Zipf(s = 1.1) stream.
func requestStream(seed int64, point, stream, n, corpus int) []int {
	z := gen.ZipfCorpus(gen.Substream(seed, point, stream), corpus, zipfExponent)
	idx := make([]int, n)
	for k := range idx {
		idx[k] = z.Next()
	}
	return idx
}

// replica is the mcs-serve instance under load: a child process, or an
// in-process httptest server when no binary is given.
type replica struct {
	base   string
	client *http.Client
	cmd    *exec.Cmd
	logs   chan struct{} // closed once the child's stderr is drained
	local  *httptest.Server
}

func startReplica(bin string, workers int) (*replica, error) {
	r := &replica{client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}}
	if bin == "" {
		svc := server.New(server.Config{})
		svc.SetReady()
		r.local = httptest.NewServer(svc.Handler())
		r.base = r.local.URL
	} else if err := r.spawn(bin); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get(r.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			r.stop()
			return nil, fmt.Errorf("replica at %s not ready after 10s", r.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spawn starts mcs-serve with its default configuration on an ephemeral
// loopback port and reads the address from its startup line.
func (r *replica) spawn(bin string) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The replica must not outlive the benchmark, even one killed on a
	// timeout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	r.cmd = cmd
	r.logs = make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		defer close(r.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mcs-serve: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if ok {
			r.base = a
			return nil
		}
	case <-time.After(10 * time.Second):
	}
	r.stop()
	return errors.New("mcs-serve printed no listening address")
}

// peakRSS is the child's VmHWM in MiB; 0 for an in-process server,
// whose memory the benchmark process already counts.
func (r *replica) peakRSS() (float64, error) {
	if r.cmd == nil {
		return 0, nil
	}
	return peakRSSMiB(strconv.Itoa(r.cmd.Process.Pid))
}

// stop ends the replica and waits until it has exited.
func (r *replica) stop() {
	r.client.CloseIdleConnections()
	if r.local != nil {
		r.local.Close()
		return
	}
	r.cmd.Process.Kill()
	<-r.logs
	r.cmd.Wait()
}

func (r *replica) post(body []byte) (int, []byte, error) {
	resp, err := r.client.Post(r.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, got, err
}

// scrape reads /metrics into series → value.
func (r *replica) scrape() (map[string]float64, error) {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// stageResult is one open-loop stage, indexed by request number k.
type stageResult struct {
	idx     []int     // corpus index of request k
	latency []float64 // ms from when request k was due to its response
	rtt     []float64 // ms from sending request k to its response
	lag     []float64 // ms request k was sent late
	refused int       // transport errors and non-200 statuses
	wrong   []error   // 200s whose body failed the check
	elapsed time.Duration
}

// finalLag is the mean lag of the stage's last tenth of requests.
func (st stageResult) finalLag() float64 {
	return mean(st.lag[len(st.lag)*9/10:])
}

// p99 is the stage's p99 latency over rungWindows windows.
func (st stageResult) p99() float64 {
	return windowQuantile(st.latency, chunks(st.latency, min(rungWindows, len(st.latency))), 0.99)
}

// passes reports whether the stage met the SLO: nothing refused or
// wrong, p99 within sloLatency, and no growing backlog: the last tenth
// of the requests went out within sloLatency of their due times.
func (st stageResult) passes() bool {
	return len(st.latency) > 0 && st.refused == 0 && len(st.wrong) == 0 &&
		st.p99() <= ms(sloLatency) && st.finalLag() <= ms(sloLatency)
}

// zipfRun is one serve-zipf run's state.
type zipfRun struct {
	cfg    config
	corpus *zipfCorpus
	warm   []int
	rep    *replica
	stream int // next stage stream number
}

// setup builds the corpus, starts a replica and primes its cache with a
// warm-up stream as long as the corpus, so the measured stages start
// from the steady state.
func (z *zipfRun) setup(corpusSets int) error {
	corpus, err := buildZipfCorpus(z.cfg.seed, corpusSets, z.cfg.workers)
	if err != nil {
		return err
	}
	if z.rep != nil {
		z.rep.stop()
		z.rep = nil
	}
	rep, err := startReplica(z.cfg.serveBin, z.cfg.workers)
	if err != nil {
		return err
	}
	z.corpus, z.rep = corpus, rep
	z.warm = requestStream(z.cfg.seed, pointZipfWarmup, 0, corpusSets, corpusSets)
	for _, i := range z.warm {
		status, got, err := rep.post(corpus.bodies[i])
		if err == nil {
			err = checkServed(status, got, corpus.want[i])
		}
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// nextStream draws the next stage's request indices.
func (z *zipfRun) nextStream(n int) []int {
	z.stream++
	return requestStream(z.cfg.seed, pointZipfStage, z.stream, n, len(z.corpus.bodies))
}

// stage offers rate req/s for d: request k is due at start + k/rate and
// is sent by whichever of the workers' connections is free first.
// Latency counts from the due time, so a stall delays later requests in
// the measurement instead of the offered load.
func (z *zipfRun) stage(rate float64, d time.Duration, log *spanLog) stageResult {
	n := max(int(rate*d.Seconds()), 1)
	idx := z.nextStream(n)
	st := stageResult{
		idx:     idx,
		latency: make([]float64, n),
		rtt:     make([]float64, n),
		lag:     make([]float64, n),
	}
	refused := make([]bool, n)
	wrong := make([]error, n)
	interval := float64(time.Second) / rate
	opBase := int64(z.stream) << 32
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < z.cfg.workers; w++ {
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) * interval))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				status, got, err := z.rep.post(z.corpus.bodies[idx[k]])
				done := time.Now()
				st.latency[k] = ms(done.Sub(due))
				st.rtt[k] = ms(done.Sub(sent))
				st.lag[k] = ms(sent.Sub(due))
				root := tr.record("loadgen.request", -1, opBase+int64(k), due, done)
				tr.record("net.roundtrip", root, opBase+int64(k), sent, done)
				switch {
				case err != nil || status != http.StatusOK:
					refused[k] = true
				default:
					wrong[k] = checkServed(status, got, z.corpus.want[idx[k]])
				}
			}
		}(log.tracer())
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	for k := range refused {
		if refused[k] {
			st.refused++
		}
		if wrong[k] != nil {
			st.wrong = append(st.wrong, wrong[k])
		}
	}
	return st
}

// fixedStage runs the fixed-rate stage and counts every request.
func (z *zipfRun) fixedStage(o *outcome, d time.Duration, log *spanLog) stageResult {
	st := z.stage(zipfFixedRate, d, log)
	o.attempted += len(st.latency)
	for i := 0; i < st.refused; i++ {
		o.fail("fixed-rate request refused (transport error, 429 or 5xx)")
	}
	for _, err := range st.wrong {
		o.fail("%v", err)
	}
	return st
}

// ladder returns rps_at_slo: the throughput sustained on the highest
// rung that passed, on a fixed ladder starting at the fixed rate and
// refined by bisection. Refusals on overloaded rungs are expected and not
// failures; a wrong body is.
func (z *zipfRun) ladder(o *outcome, d time.Duration, log *spanLog) float64 {
	rungDur := d / (ladderRungs + bisectRungs)
	lo, hi, sustained := 0.0, 0.0, 0.0
	rate := zipfFixedRate
	for climbed, bisected := 0, 0; ; {
		st := z.stage(rate, rungDur, log)
		o.attempted += len(st.latency) - st.refused
		for _, err := range st.wrong {
			o.fail("%v", err)
		}
		pass := st.passes()
		if pass {
			lo = rate
			sustained = float64(len(st.latency)) / st.elapsed.Seconds()
		} else {
			hi = rate
		}
		o.note("ladder rung %.0f req/s: p99 %.3f ms, final lag %.3f ms, refused %d, pass %t",
			rate, st.p99(), st.finalLag(), st.refused, pass)
		climbed++
		switch {
		case hi == 0 && climbed < ladderRungs:
			rate *= ladderStep
		case lo == 0 && climbed < ladderRungs:
			rate /= ladderStep
		case lo > 0 && hi > 0 && bisected < bisectRungs:
			rate = math.Sqrt(lo * hi)
			bisected++
		default:
			if hi == 0 {
				o.note("every ladder rung passed; rps_at_slo is censored at %.0f req/s", lo)
			}
			return sustained
		}
	}
}

func runServeZipf(cfg config) (*outcome, error) {
	o := newOutcome()
	z := &zipfRun{cfg: cfg}
	corpusSets := zipfCorpusSets
	if cfg.small {
		corpusSets = 64
	}
	defer func() {
		if z.rep != nil {
			z.rep.stop()
		}
	}()
	if err := timeSetup(cfg, o, func() error { return z.setup(corpusSets) }); err != nil {
		return nil, err
	}
	if !cfg.trace {
		fixed := z.fixedStage(o, cfg.measure*4/10, nil)
		o.latency = fixed.latency
		o.windowed = chunks(fixed.latency, max(int(cfg.measure*4/10/zipfWindow), 1))
		o.opsRate = z.ladder(o, cfg.measure*6/10, nil)
		o.note("fixed-rate stage: %d requests at %.0f req/s in %v",
			len(fixed.latency), zipfFixedRate, fixed.elapsed.Round(time.Millisecond))
		rss, err := z.rep.peakRSS()
		o.childMB = rss
		return o, err
	}

	untraced := z.fixedStage(o, cfg.measure/4, nil)
	o.spans = newSpanLog(true)
	m0, err := z.rep.scrape()
	if err != nil {
		return nil, err
	}
	traced := z.fixedStage(o, cfg.measure/4, o.spans)
	m1, err := z.rep.scrape()
	if err != nil {
		return nil, err
	}
	z.ladder(o, cfg.measure/2, o.spans)
	m2, err := z.rep.scrape()
	if err != nil {
		return nil, err
	}
	if err := z.replay(o, traced.idx); err != nil {
		return nil, err
	}
	serverLayers(o, m0, m1, m2, traced.elapsed)

	o.layers["loadgen.lag_p99_ms"] = stats.Quantile(traced.lag, 0.99)
	o.layers["net.overhead_us"] = mean(traced.rtt)*1e3 - o.layers["server.handler_us"]
	o.layers["trace.overhead_share"] = stats.Quantile(traced.latency, 0.5)/stats.Quantile(untraced.latency, 0.5) - 1
	return o, nil
}

// serverLayers derives the cache, coalescing and admission ratios from
// /metrics deltas: cache and coalescing over the traced fixed stage
// (m0 → m1), rejections over it and the ladder (m0 → m2).
func serverLayers(o *outcome, m0, m1, m2 map[string]float64, window time.Duration) {
	delta := func(a, b map[string]float64, key string) float64 { return b[key] - a[key] }
	hits := delta(m0, m1, "mcs_cache_hits_total")
	misses := delta(m0, m1, "mcs_cache_misses_total")
	o.layers["cache.hit_ratio"] = ratio(hits, hits+misses)
	o.layers["cache.evictions_per_s"] = delta(m0, m1, "mcs_cache_evictions_total") / window.Seconds()
	flights := delta(m0, m1, "mcs_coalesce_flights_total")
	dedup := delta(m0, m1, "mcs_coalesce_dedup_total")
	o.layers["cluster.coalesce_dedup_ratio"] = ratio(dedup, flights+dedup)
	var requests, rejected float64
	for key := range m2 {
		if strings.HasPrefix(key, `mcs_requests_total{endpoint="/v1/analyze"`) {
			requests += delta(m0, m2, key)
			if strings.HasSuffix(key, `code="429"}`) {
				rejected += delta(m0, m2, key)
			}
		}
	}
	o.layers["server.reject_ratio"] = ratio(rejected, requests)
}

// zipfPhases are the spans the mirrored pipeline times; together they
// must account for the replayed handler time (phaseSumMin..phaseSumMax).
var zipfPhases = []string{"task.parse", "task.fingerprint", "cache.get", "core.analyze", "core.encode", "cache.put"}

// replay sends the traced stage's requests through server.Handler in
// process, on one goroutine, timing each ServeHTTP call and counting its
// allocations; then it runs the same stream through the benchmark's own
// mirror of the handler's pipeline, timing each phase. Both start from a
// fresh default server or cache primed with the warm-up stream, so both
// see the same hits and misses.
func (z *zipfRun) replay(o *outcome, idx []int) error {
	if len(idx) > replayRequests {
		idx = idx[:replayRequests]
	}
	h := server.New(server.Config{}).Handler()
	serve := func(i int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(z.corpus.bodies[i])))
		return rec
	}
	for _, i := range z.warm {
		serve(i)
	}
	reqs := make([]*http.Request, len(idx))
	recs := make([]*httptest.ResponseRecorder, len(idx))
	for k, i := range idx {
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(z.corpus.bodies[i]))
		recs[k] = httptest.NewRecorder()
	}
	tr := o.spans.tracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := range reqs {
		id := tr.begin("server.handler", -1, int64(k))
		h.ServeHTTP(recs[k], reqs[k])
		tr.end(id)
	}
	runtime.ReadMemStats(&m1)
	o.layers["server.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(idx))
	for k, i := range idx {
		o.check(checkServed(recs[k].Code, recs[k].Body.Bytes(), z.corpus.want[i]))
	}

	results := cache.New[[]byte](1024) // the server's default capacity
	for _, i := range z.warm {
		if err := mirrorAnalyze(results, z.corpus.bodies[i], nil, 0); err != nil {
			return err
		}
	}
	for k, i := range idx {
		if err := mirrorAnalyze(results, z.corpus.bodies[i], tr, int64(k)); err != nil {
			return err
		}
	}

	self := o.spans.selfTimes()
	handler := self["server.handler"]
	var phases int64
	for _, p := range zipfPhases {
		phases += self[p].selfNs
	}
	covered := ratio(float64(phases), float64(handler.selfNs))
	o.layers["server.handler_us"] = handler.meanUs()
	o.layers["server.unattributed_share"] = 1 - covered
	layerSelf(o, self, zipfPhases...)
	o.check(checkPhaseSum(covered))
	o.note("phase sum: parse+fingerprint+cache+analyze+encode cover %.3f of server.handler (tolerance %.2f..%.2f)",
		covered, phaseSumMin, phaseSumMax)
	return nil
}

// checkPhaseSum is the phase-sum check: the mirrored phases must cover
// the given share of the replayed handler time.
func checkPhaseSum(covered float64) error {
	if covered < phaseSumMin || covered > phaseSumMax {
		return fmt.Errorf("phase-sum check: phases cover %.3f of handler time, want %.2f..%.2f", covered, phaseSumMin, phaseSumMax)
	}
	return nil
}

// mirrorAnalyze is the benchmark's copy of the /v1/analyze pipeline for
// a bare task array: parse, fingerprint, cache lookup and, on a miss,
// analyze, encode and cache. Each phase is one span.
func mirrorAnalyze(results *cache.Cache[[]byte], body []byte, tr *tracer, op int64) error {
	root := tr.begin("server.phases", -1, op)
	defer tr.end(root)
	id := tr.begin("task.parse", root, op)
	set, err := task.ParseJSON(body)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("task.fingerprint", root, op)
	fp := set.Fingerprint()
	tr.end(id)
	id = tr.begin("cache.get", root, op)
	key := fmt.Sprintf("analyze|%s|speed=%s|%s", fp, rat.Two, "x=-|minx=false|y=-|terminate=false")
	_, hit := results.Get(key)
	tr.end(id)
	if hit {
		return nil
	}
	id = tr.begin("core.analyze", root, op)
	rep, err := core.Analyze(set, rat.Two)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("core.encode", root, op)
	out, err := rep.MarshalIndent()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("cache.put", root, op)
	results.Put(key, out)
	tr.end(id)
	return nil
}
