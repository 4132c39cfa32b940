package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcspeedup/internal/cache"
	"mcspeedup/internal/core"
)

// latencyBuckets are the histogram upper bounds in seconds. The analyses
// are sub-millisecond for small sets and can reach seconds for large
// pseudo-polynomial walks, so the buckets span 500 µs – 2.5 s.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// histogram is a fixed-bucket latency histogram (cumulative counts are
// computed at render time; counts here are per bucket).
type histogram struct {
	counts []uint64 // len(latencyBuckets)+1; last slot = +Inf overflow
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if seconds <= latencyBuckets[i] {
			break
		}
	}
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metrics aggregates the service counters rendered by GET /metrics.
// Request counts are keyed by (endpoint, status code); latency histograms
// by endpoint.
type metrics struct {
	mu       sync.Mutex
	start    time.Time
	requests map[string]map[int]uint64
	latency  map[string]*histogram
	// /v1/batch item counters, by outcome.
	batchItems, batchHits, batchErrors uint64
	// /v1/session counters: lifecycle, edit volume, and how reports were
	// produced (warm delta re-analysis vs first cold analysis vs served
	// straight from the shared result cache).
	sessionsCreated, sessionsEvicted uint64
	sessionEdits                     uint64
	sessionDeltas, sessionColds      uint64
	sessionCacheHits                 uint64
	// Monte-Carlo replicates computed by /v1/fleet (cache hits excluded).
	fleetRuns uint64
	// Accounting of the Theorem-2 walks run for /v1/speedup, /v1/analyze
	// and /v1/batch items on cache misses: events examined, bulk skips
	// taken, and walks whose result is inexact (a safe bracket).
	walkEvents, walkJumps, walkInexact uint64
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*histogram),
	}
}

// record registers one completed request.
func (m *metrics) record(endpoint string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[code]++
	h := m.latency[endpoint]
	if h == nil {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	h.observe(elapsed.Seconds())
}

// recordBatch registers one completed /v1/batch request's item tallies.
func (m *metrics) recordBatch(items, hits, errors int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchItems += uint64(items)
	m.batchHits += uint64(hits)
	m.batchErrors += uint64(errors)
}

// recordSessionCreate registers a session creation and, when the
// registry was full, the LRU eviction that made room for it.
func (m *metrics) recordSessionCreate(evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsCreated++
	if evicted {
		m.sessionsEvicted++
	}
}

// recordSessionEdits registers n applied session edits.
func (m *metrics) recordSessionEdits(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionEdits += uint64(n)
}

// recordSessionAnalysis registers one session report computation: a
// warm delta re-analysis or the session's first, cold analysis.
func (m *metrics) recordSessionAnalysis(delta bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if delta {
		m.sessionDeltas++
	} else {
		m.sessionColds++
	}
}

// recordSessionCacheHit registers a session report served from the
// shared result cache with no analysis run.
func (m *metrics) recordSessionCacheHit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionCacheHits++
}

// recordFleet registers one computed /v1/fleet request's replicate
// count.
func (m *metrics) recordFleet(runs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetRuns += uint64(runs)
}

// recordWalk registers one Theorem-2 walk's accounting.
func (m *metrics) recordWalk(sp core.SpeedupResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walkEvents += uint64(sp.Events)
	m.walkJumps += uint64(sp.Jumps)
	if !sp.Exact {
		m.walkInexact++
	}
}

// render emits the Prometheus text exposition format. Families and label
// values are emitted in sorted order so the output is deterministic.
func (m *metrics) render(cs cache.Stats, poolInFlight, poolCapacity, sessionsLive int, gs flightStats, ready bool) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	b.WriteString("# HELP mcs_requests_total Completed HTTP requests by endpoint and status code.\n")
	b.WriteString("# TYPE mcs_requests_total counter\n")
	for _, ep := range endpoints {
		codes := make([]int, 0, len(m.requests[ep]))
		for c := range m.requests[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "mcs_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.requests[ep][c])
		}
	}

	b.WriteString("# HELP mcs_request_duration_seconds Request latency by endpoint.\n")
	b.WriteString("# TYPE mcs_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := m.latency[ep]
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(&b, "mcs_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(&b, "mcs_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(&b, "mcs_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(&b, "mcs_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}

	b.WriteString("# HELP mcs_batch_items_total Task sets received across /v1/batch requests.\n")
	b.WriteString("# TYPE mcs_batch_items_total counter\n")
	fmt.Fprintf(&b, "mcs_batch_items_total %d\n", m.batchItems)
	b.WriteString("# TYPE mcs_batch_item_cache_hits_total counter\n")
	fmt.Fprintf(&b, "mcs_batch_item_cache_hits_total %d\n", m.batchHits)
	b.WriteString("# TYPE mcs_batch_item_errors_total counter\n")
	fmt.Fprintf(&b, "mcs_batch_item_errors_total %d\n", m.batchErrors)

	b.WriteString("# HELP mcs_fleet_runs_total Monte-Carlo replicates computed by /v1/fleet (cache hits excluded).\n")
	b.WriteString("# TYPE mcs_fleet_runs_total counter\n")
	fmt.Fprintf(&b, "mcs_fleet_runs_total %d\n", m.fleetRuns)

	b.WriteString("# HELP mcs_walk_events_total Slope-change events examined by Theorem-2 walks run on cache misses of /v1/speedup, /v1/analyze and /v1/batch.\n")
	b.WriteString("# TYPE mcs_walk_events_total counter\n")
	fmt.Fprintf(&b, "mcs_walk_events_total %d\n", m.walkEvents)
	b.WriteString("# HELP mcs_walk_jumps_total Bulk skips taken by those walks.\n")
	b.WriteString("# TYPE mcs_walk_jumps_total counter\n")
	fmt.Fprintf(&b, "mcs_walk_jumps_total %d\n", m.walkJumps)
	b.WriteString("# HELP mcs_walk_inexact_total Those walks whose result is a safe bracket rather than the exact supremum.\n")
	b.WriteString("# TYPE mcs_walk_inexact_total counter\n")
	fmt.Fprintf(&b, "mcs_walk_inexact_total %d\n", m.walkInexact)

	b.WriteString("# HELP mcs_sessions_live Incremental-analysis sessions currently registered.\n")
	b.WriteString("# TYPE mcs_sessions_live gauge\n")
	fmt.Fprintf(&b, "mcs_sessions_live %d\n", sessionsLive)
	b.WriteString("# TYPE mcs_sessions_created_total counter\n")
	fmt.Fprintf(&b, "mcs_sessions_created_total %d\n", m.sessionsCreated)
	b.WriteString("# TYPE mcs_sessions_evicted_total counter\n")
	fmt.Fprintf(&b, "mcs_sessions_evicted_total %d\n", m.sessionsEvicted)
	b.WriteString("# HELP mcs_session_edits_total Task-set edits applied across sessions.\n")
	b.WriteString("# TYPE mcs_session_edits_total counter\n")
	fmt.Fprintf(&b, "mcs_session_edits_total %d\n", m.sessionEdits)
	b.WriteString("# HELP mcs_session_delta_reanalyses_total Session reports produced by warm delta re-analysis.\n")
	b.WriteString("# TYPE mcs_session_delta_reanalyses_total counter\n")
	fmt.Fprintf(&b, "mcs_session_delta_reanalyses_total %d\n", m.sessionDeltas)
	b.WriteString("# TYPE mcs_session_cold_analyses_total counter\n")
	fmt.Fprintf(&b, "mcs_session_cold_analyses_total %d\n", m.sessionColds)
	b.WriteString("# TYPE mcs_session_cache_hits_total counter\n")
	fmt.Fprintf(&b, "mcs_session_cache_hits_total %d\n", m.sessionCacheHits)

	b.WriteString("# HELP mcs_cache_hits_total Result-cache lookups served from cache.\n")
	b.WriteString("# TYPE mcs_cache_hits_total counter\n")
	fmt.Fprintf(&b, "mcs_cache_hits_total %d\n", cs.Hits)
	b.WriteString("# TYPE mcs_cache_misses_total counter\n")
	fmt.Fprintf(&b, "mcs_cache_misses_total %d\n", cs.Misses)
	b.WriteString("# TYPE mcs_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "mcs_cache_evictions_total %d\n", cs.Evictions)
	b.WriteString("# TYPE mcs_cache_entries gauge\n")
	fmt.Fprintf(&b, "mcs_cache_entries %d\n", cs.Len)
	b.WriteString("# TYPE mcs_cache_capacity gauge\n")
	fmt.Fprintf(&b, "mcs_cache_capacity %d\n", cs.Capacity)
	b.WriteString("# HELP mcs_cache_hit_ratio Hits over total lookups since start.\n")
	b.WriteString("# TYPE mcs_cache_hit_ratio gauge\n")
	fmt.Fprintf(&b, "mcs_cache_hit_ratio %g\n", cs.HitRatio())

	b.WriteString("# HELP mcs_pool_in_flight Analyses currently holding an admission slot.\n")
	b.WriteString("# TYPE mcs_pool_in_flight gauge\n")
	fmt.Fprintf(&b, "mcs_pool_in_flight %d\n", poolInFlight)
	b.WriteString("# TYPE mcs_pool_capacity gauge\n")
	fmt.Fprintf(&b, "mcs_pool_capacity %d\n", poolCapacity)

	b.WriteString("# HELP mcs_coalesce_flights_total Coalesced computations executed (flight leaders).\n")
	b.WriteString("# TYPE mcs_coalesce_flights_total counter\n")
	fmt.Fprintf(&b, "mcs_coalesce_flights_total %d\n", gs.Flights)
	b.WriteString("# HELP mcs_coalesce_dedup_total Requests that joined an in-flight computation instead of running their own.\n")
	b.WriteString("# TYPE mcs_coalesce_dedup_total counter\n")
	fmt.Fprintf(&b, "mcs_coalesce_dedup_total %d\n", gs.Dedup)

	b.WriteString("# HELP mcs_ready Whether the replica reports ready (1) on /readyz.\n")
	b.WriteString("# TYPE mcs_ready gauge\n")
	if ready {
		b.WriteString("mcs_ready 1\n")
	} else {
		b.WriteString("mcs_ready 0\n")
	}

	b.WriteString("# HELP mcs_uptime_seconds Seconds since the server started.\n")
	b.WriteString("# TYPE mcs_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "mcs_uptime_seconds %g\n", time.Since(m.start).Seconds())
	return b.String()
}
