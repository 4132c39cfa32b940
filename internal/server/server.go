// Package server implements the mcs-serve HTTP/JSON API: the paper's
// analyses as a long-running service with content-addressed result
// caching, bounded-concurrency admission control, and Prometheus-style
// metrics.
//
// Endpoints:
//
//	POST /v1/analyze   — full safety report (Theorem 2 + Corollary 5 +
//	                     Lemmas 6–7), byte-identical to mcs-analyze -json
//	POST /v1/batch     — many analyze items in one request, fanned over
//	                     the admission pool; per-item results are
//	                     byte-identical to individual /v1/analyze calls
//	POST /v1/speedup   — minimum HI-mode speedup s_min (Theorem 2)
//	POST /v1/reset     — service resetting time Δ_R (Corollary 5)
//	POST /v1/session   — edit-stream sessions over incremental analysis;
//	                     reports byte-identical to /v1/analyze
//	POST /v1/simulate  — discrete-event run of the runtime protocol (§IV)
//	POST /v1/fleet     — Monte-Carlo fleet of sampled runs (§IV)
//	GET  /healthz     — liveness probe
//	GET  /readyz       — readiness probe: 503 before startup completes
//	                     and once SIGTERM drain begins
//	GET  /metrics      — Prometheus text exposition
//
// Every analysis is a pure function of the task set and options, so POST
// responses are cached in a size-bounded LRU keyed by the canonical
// content hash task.Set.Fingerprint() plus a canonical option string:
// semantically identical requests (task order, JSON field order,
// whitespace) hit the same entry. In-flight analyses are capped by a
// par.Pool; when the pool stays saturated past the admission wait the
// request is rejected with 429 so callers can back off.
//
// Concurrent identical misses are coalesced by a singleflight group: a
// thundering herd on one hot key performs exactly one analysis and
// every caller shares the bytes. See docs/SERVING.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"mcspeedup/internal/cache"
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/par"
	"mcspeedup/internal/task"
)

// Config tunes the service. The zero value selects production defaults.
type Config struct {
	// MaxInFlight caps concurrently computed analyses (cache hits are
	// served without a slot). 0 = GOMAXPROCS.
	MaxInFlight int
	// AdmissionWait bounds how long a request waits for a free slot
	// before 429. 0 = 100ms.
	AdmissionWait time.Duration
	// RequestTimeout is the per-request deadline; requests whose
	// deadline expires before computation starts are rejected. 0 = 30s.
	RequestTimeout time.Duration
	// CacheEntries bounds the result cache. 0 = 1024.
	CacheEntries int
	// MaxBodyBytes bounds the request body. 0 = 8 MiB.
	MaxBodyBytes int64
	// MaxSimHorizon bounds the /v1/simulate workload horizon in ticks
	// (the horizon drives the simulated-job count). 0 = 2,000,000
	// (200 s at the experiment tick of 100 µs).
	MaxSimHorizon task.Time
	// MaxFleetRuns bounds the number of Monte-Carlo replicates per
	// /v1/fleet request. 0 = 20,000.
	MaxFleetRuns int
	// MaxBatchItems bounds the number of task sets per /v1/batch
	// request. 0 = 256.
	MaxBatchItems int
	// MaxSessions bounds the live /v1/session registry; beyond it the
	// least-recently-used session is evicted. 0 = 64.
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = par.Workers(0)
	}
	if c.AdmissionWait <= 0 {
		c.AdmissionWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSimHorizon <= 0 {
		c.MaxSimHorizon = 2_000_000
	}
	if c.MaxFleetRuns <= 0 {
		c.MaxFleetRuns = 20_000
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	return c
}

// Server is the mcs-serve HTTP handler set.
type Server struct {
	cfg      Config
	pool     *par.Pool
	results  *cache.Cache[[]byte]
	metrics  *metrics
	sessions *sessionRegistry
	flights  flightGroup
	ready    atomic.Bool
	draining atomic.Bool
	mux      *http.ServeMux
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     par.NewPool(cfg.MaxInFlight),
		results:  cache.New[[]byte](cfg.CacheEntries),
		metrics:  newMetrics(),
		sessions: newSessionRegistry(cfg.MaxSessions),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/analyze", s.instrument("/v1/analyze", s.requirePOST(s.handleAnalyze)))
	s.mux.HandleFunc("/v1/session", s.instrument("/v1/session", s.requirePOST(s.handleSession)))
	s.mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", s.requirePOST(s.handleBatch)))
	s.mux.HandleFunc("/v1/speedup", s.instrument("/v1/speedup", s.requirePOST(s.handleSpeedup)))
	s.mux.HandleFunc("/v1/reset", s.instrument("/v1/reset", s.requirePOST(s.handleReset)))
	s.mux.HandleFunc("/v1/simulate", s.instrument("/v1/simulate", s.requirePOST(s.handleSimulate)))
	s.mux.HandleFunc("/v1/fleet", s.instrument("/v1/fleet", s.requirePOST(s.handleFleet)))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter records the status code written to the client.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency/status accounting and the
// request deadline.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		s.metrics.record(endpoint, sw.code, time.Since(start))
	}
}

func (s *Server) requirePOST(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	}
}

// errSaturated marks pool-admission failure; mapped to 429.
var errSaturated = errors.New("server saturated; retry later")

// errInternal marks an analysis that panicked for a reason other than
// bad input; mapped to 500.
var errInternal = errors.New("internal error")

// compute serves the endpoint's response bytes from the cache when
// possible, otherwise admits the computation through the pool, runs fn,
// and caches its result. The returned bool mirrors the X-Cache header.
// wait > 0 is the single-request behavior (bounded wait, then 429);
// wait ≤ 0 queues for a slot until the request context expires, which
// is what /v1/batch items want — a saturated pool should stretch a
// batch out, not shed items that individual retries would recompute
// anyway.
//
// Misses are coalesced per key: a thundering herd of identical requests
// performs one analysis and shares the bytes. Each request does exactly
// one cache lookup (the Get here) — followers of a flight share the
// leader's bytes without a second Get, so the hit/miss counters keep
// counting requests, not flight internals.
func (s *Server) compute(ctx context.Context, wait time.Duration, key string, fn func() ([]byte, error)) ([]byte, bool, error) {
	if body, ok := s.results.Get(key); ok {
		return body, true, nil
	}
	body, _, err := s.flights.Do(key, func() ([]byte, error) {
		return s.admitAndRun(ctx, wait, key, fn)
	})
	if err != nil {
		return nil, false, err
	}
	return body, false, nil
}

// admitAndRun is the post-cache, post-coalescing slow path: acquire a
// pool slot (bounded by wait when > 0), run the analysis behind the
// panic boundary, and publish the bytes to the result cache.
func (s *Server) admitAndRun(ctx context.Context, wait time.Duration, key string, fn func() ([]byte, error)) ([]byte, error) {
	admit := ctx
	if wait > 0 {
		var cancel context.CancelFunc
		admit, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	if err := s.pool.Acquire(admit); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("request deadline exceeded: %w", ctx.Err())
		}
		return nil, errSaturated
	}
	defer s.pool.Release()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("request deadline exceeded: %w", err)
	}
	body, err := runAnalysis(fn)
	if err != nil {
		return nil, err
	}
	s.results.Put(key, body)
	return body, nil
}

// runAnalysis invokes fn behind the service's panic boundary. The
// analysis layer panics on negative interval lengths (a caller bug in
// library use), but here the intervals descend from an untrusted request
// body, so a dbf.ErrNegativeInterval panic is converted back into an
// input error (mapped to 400 by errorStatus). Any other panic is a
// genuine server bug: it is logged with its stack and answered as an
// errInternal (500), so it neither drops the connection nor — from a
// /v1/batch item goroutine — ends the process.
func runAnalysis(fn func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok && errors.Is(e, dbf.ErrNegativeInterval) {
			body, err = nil, fmt.Errorf("invalid task set: %v", e)
			return
		}
		log.Printf("analysis panic: %v\n%s", r, debug.Stack())
		body, err = nil, fmt.Errorf("%w: analysis failed", errInternal)
	}()
	return fn()
}

// serveComputed runs compute with the configured admission wait and
// writes the JSON response, translating admission and input errors to
// their status codes.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, key string, fn func() ([]byte, error)) {
	body, hit, err := s.compute(r.Context(), s.cfg.AdmissionWait, key, fn)
	if err != nil {
		if errors.Is(err, errSaturated) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, errorStatus(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	// Two writes, not append(body, '\n'): body is shared — the cache and
	// the singleflight group hand the same backing array to every
	// concurrent request, so an in-place append is a data race.
	w.Write(body)
	w.Write([]byte{'\n'})
}

// SetReady marks startup complete; /readyz turns 200. mcs-serve calls
// this once the listener is accepting.
func (s *Server) SetReady() { s.ready.Store(true) }

// BeginDrain marks the drain phase of shutdown: /readyz turns 503 so
// load balancers stop routing here, while /healthz and the work
// endpoints keep serving until the listener closes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "starting"})
	default:
		json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"uptimeSeconds": int64(time.Since(s.metrics.start).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ready := s.ready.Load() && !s.draining.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.render(s.results.Stats(), s.pool.InFlight(), s.pool.Capacity(), s.sessions.live(), s.flights.Stats(), ready))
}

// errorStatus maps a compute error to its HTTP status: saturation → 429,
// deadline/cancellation → 503, anything else is input-driven → 400.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, errSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, errInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
