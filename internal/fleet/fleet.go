// Package fleet is the Monte-Carlo validation engine: it fans N
// sampled-ACET simulation runs over internal/par and reduces them into
// streaming aggregates — episode-length distribution against the
// Corollary-5 Δ_R bound, mode-switch and miss rates, budget trips, and a
// time-at-speed energy proxy — producing the empirical validation figure
// the analytical results lack.
//
// Determinism is workers-invariant by construction, mirroring the
// experiment sweeps: every run's workload derives from
// gen.Substream(seed, replicate, task), runs are reduced in fixed-size
// chunks whose boundaries do not depend on the worker count, and chunk
// aggregates merge in strict chunk-index order (float accumulation is
// order-sensitive, so index order is what makes the output byte-identical
// for any -workers). Each chunk holds O(1) state, reused across its runs:
// one sim.Scratch, one sim.Result, one workload buffer, one sampler, and
// one chunk aggregate recycled through a pool via stats.Histogram.Reset.
package fleet

import (
	"fmt"
	"sync"

	"mcspeedup/internal/core"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/par"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/stats"
	"mcspeedup/internal/task"
)

// chunkSize is the number of runs one reducer chunk covers. It is a
// constant — never derived from Workers — so the chunk partition, and
// with it every float accumulation order, is identical however the
// chunks are claimed.
const chunkSize = 512

// Episode-length histogram geometry (simulation ticks). Values are
// clamped at the edges, and the exact mean and max are tracked outside
// the buckets, so outliers stay visible regardless.
const (
	histMin       = 0.25
	histMax       = 1e7
	histPerDecade = 10
)

// Params configures one fleet.
type Params struct {
	// Set is the task set; it is validated once (sim.CompileSet).
	Set task.Set
	// Runs is the number of sampled runs. Required.
	Runs int
	// Seed keys every per-(replicate, task) sample stream.
	Seed int64
	// Speedup is the HI-mode speed factor s. Required (use rat.One for a
	// system without speedup).
	Speedup rat.Rat
	// Budget, if positive, is the per-episode wall-clock budget before
	// the Section-I fallback (terminate LO work, nominal speed).
	Budget rat.Rat
	// Horizon is the sampled release window per run; defaults to
	// 20 × the set's largest period.
	Horizon task.Time
	// Workers sizes the worker pool (≤ 0: one per CPU). The output is
	// byte-identical for every value.
	Workers int
	// ACET is the per-job execution-time model; the zero value means
	// gen.DefaultACET().
	ACET gen.ACET
}

func (p Params) withDefaults() (Params, error) {
	if p.Runs <= 0 {
		return p, fmt.Errorf("fleet: runs %d must be positive", p.Runs)
	}
	if p.Speedup.Sign() <= 0 || p.Speedup.IsInf() {
		return p, fmt.Errorf("fleet: speedup %v must be positive and finite", p.Speedup)
	}
	if p.Horizon <= 0 {
		p.Horizon = 20 * p.Set.MaxPeriod()
	}
	if p.Horizon <= 0 {
		return p, fmt.Errorf("fleet: horizon %d must be positive", p.Horizon)
	}
	if p.ACET.IsZero() {
		p.ACET = gen.DefaultACET()
	}
	if err := p.ACET.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Run executes the fleet and returns the merged summary.
func Run(p Params) (*Summary, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	c, err := sim.CompileSet(p.Set)
	if err != nil {
		return nil, err
	}
	// The analytic Δ_R bound the observed episode lengths are judged
	// against. A speed outside the Corollary-5 domain (or ≤ U_HI) has no
	// finite bound; episodes are then unjudged rather than violating.
	bound := rat.PosInf
	if rr, err := core.ResetTime(p.Set, p.Speedup); err == nil {
		bound = rr.Reset
	}
	boundF := bound.Float64()
	cfg := sim.Config{Speedup: p.Speedup, Budget: p.Budget}
	budgetF := p.Budget.Float64()

	nChunks := (p.Runs + chunkSize - 1) / chunkSize
	m := newMerger(nChunks)
	err = par.ForEach(nChunks, par.Workers(p.Workers), func(ci int) error {
		a := aggPool.Get().(*agg)
		a.reset()
		var (
			res sim.Result
			sc  sim.Scratch
			wl  sim.Workload
			sm  sampler
		)
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > p.Runs {
			hi = p.Runs
		}
		for r := lo; r < hi; r++ {
			wl = sm.workload(wl[:0], &p, r)
			if err := c.RunWorkload(&res, &sc, wl, cfg); err != nil {
				return err
			}
			a.observe(&res, len(wl), boundF, budgetF)
		}
		m.deliver(ci, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m.total.summary(p, bound), nil
}

// sampler draws replicate workloads. Each task draws from its own
// (seed, replicate, task) substream: jittered sporadic releases at T(LO)
// spacing plus up to half a period of jitter, demands from the ACET
// bands. A workload is therefore a pure function of (Params, r),
// independent of scheduling order, and valid by construction for
// sim.RunWorkload: sorted, demands within caps, T(LO) spacing.
//
// A task's releases ascend, and (At, Task) is a strict total order over
// a workload, so the sampler merges the per-task release streams through
// a min-heap of task indices instead of sorting: advancing each task's
// stream only when its release is emitted yields exactly the sorted
// sequence with the same per-task draws. Each chunk owns one sampler and
// reuses it across its runs, so sampling allocates nothing once the
// slices have grown.
type sampler struct {
	streams []gen.Stream
	heap    []release // each task's next release before the horizon
}

// release is a task's next release instant, keyed in the heap by
// (at, task).
type release struct {
	at   task.Time
	task int
}

func (a release) before(b release) bool {
	return a.at < b.at || a.at == b.at && a.task < b.task
}

// workload generates replicate r's arrival sequence into dst (resliced,
// capacity reused).
func (sm *sampler) workload(dst sim.Workload, p *Params, r int) sim.Workload {
	n := len(p.Set)
	if cap(sm.streams) < n {
		sm.streams = make([]gen.Stream, n)
		sm.heap = make([]release, 0, n)
	}
	sm.streams, sm.heap = sm.streams[:n], sm.heap[:0]
	for ti := range p.Set {
		rnd := &sm.streams[ti]
		rnd.Reseed(p.Seed, r, ti)
		if at := task.Time(rnd.Int63n(int64(p.Set[ti].Period[task.LO]))); at < p.Horizon {
			sm.heap = append(sm.heap, release{at: at, task: ti})
		}
	}
	for i := len(sm.heap)/2 - 1; i >= 0; i-- {
		sm.down(i)
	}
	for len(sm.heap) > 0 {
		next := &sm.heap[0]
		tk := &p.Set[next.task]
		rnd := &sm.streams[next.task]
		d := p.ACET.Sample(rnd, tk.Crit, tk.WCET[task.LO], tk.WCET[task.HI])
		dst = append(dst, sim.Arrival{Task: next.task, At: next.at, Demand: d})
		period := tk.Period[task.LO]
		next.at += period
		if jitter := int64(period / 2); jitter > 0 {
			next.at += task.Time(rnd.Int63n(jitter + 1))
		}
		if next.at >= p.Horizon {
			last := len(sm.heap) - 1
			sm.heap[0] = sm.heap[last]
			sm.heap = sm.heap[:last]
		}
		sm.down(0)
	}
	return dst
}

// down restores the heap order below index i.
func (sm *sampler) down(i int) {
	h := sm.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// agg is one chunk's (and, merged, the fleet's) streaming aggregate.
type agg struct {
	runs         int64
	jobsReleased int64
	completed    int64
	dropped      int64
	killed       int64
	misses       int64
	runsWithMiss int64
	episodes     int64
	budgetTrips  int64
	// boundViolations counts ended, untripped episodes longer than Δ_R —
	// the paper's Corollary-5 guarantee says this must stay 0 whenever
	// the bound is finite.
	boundViolations int64
	maxEpisode      float64
	// timeAtSpeed sums the time spent at the speedup factor: an
	// episode's full duration, or exactly the budget when it tripped
	// (the trip boundary lands on the expiry instant).
	timeAtSpeed float64
	simTime     float64 // summed run EndTimes
	episodeLen  *stats.Histogram
}

var aggPool = sync.Pool{New: func() any {
	return &agg{episodeLen: stats.NewHistogram(histMin, histMax, histPerDecade)}
}}

func (a *agg) reset() {
	*a = agg{episodeLen: a.episodeLen}
	a.episodeLen.Reset()
}

func (a *agg) observe(res *sim.Result, released int, boundF, budgetF float64) {
	a.runs++
	a.jobsReleased += int64(released)
	a.completed += int64(res.Completed)
	a.dropped += int64(res.Dropped)
	a.killed += int64(res.Killed)
	a.misses += int64(len(res.Misses))
	if len(res.Misses) > 0 {
		a.runsWithMiss++
	}
	for _, e := range res.Episodes {
		a.episodes++
		if e.BudgetTripped {
			a.budgetTrips++
		}
		if !e.Ended {
			continue
		}
		d := e.Duration().Float64()
		a.episodeLen.Observe(d)
		if d > a.maxEpisode {
			a.maxEpisode = d
		}
		if e.BudgetTripped {
			a.timeAtSpeed += budgetF
		} else {
			a.timeAtSpeed += d
			if d > boundF {
				a.boundViolations++
			}
		}
	}
	a.simTime += res.EndTime.Float64()
}

// merge folds b into a. Callers must merge in ascending chunk order —
// float sums are order-sensitive, and index order is the workers-
// invariance contract.
func (a *agg) merge(b *agg) {
	a.runs += b.runs
	a.jobsReleased += b.jobsReleased
	a.completed += b.completed
	a.dropped += b.dropped
	a.killed += b.killed
	a.misses += b.misses
	a.runsWithMiss += b.runsWithMiss
	a.episodes += b.episodes
	a.budgetTrips += b.budgetTrips
	a.boundViolations += b.boundViolations
	if b.maxEpisode > a.maxEpisode {
		a.maxEpisode = b.maxEpisode
	}
	a.timeAtSpeed += b.timeAtSpeed
	a.simTime += b.simTime
	a.episodeLen.Merge(b.episodeLen)
}

// merger folds chunk aggregates into a running total in strict chunk
// order: out-of-order deliveries park in their slot (the window is small
// — par claims indices in increasing order) until the next expected
// chunk lands, then drain in sequence. Delivered aggregates recycle
// through aggPool once merged.
type merger struct {
	mu    sync.Mutex
	next  int
	slots []*agg
	total *agg
}

func newMerger(nChunks int) *merger {
	t := aggPool.Get().(*agg)
	t.reset()
	return &merger{slots: make([]*agg, nChunks), total: t}
}

// deliver hands chunk ci's aggregate to the merger. Safe for concurrent
// use; each chunk index is delivered exactly once.
func (m *merger) deliver(ci int, a *agg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slots[ci] = a
	for m.next < len(m.slots) && m.slots[m.next] != nil {
		ready := m.slots[m.next]
		m.slots[m.next] = nil
		m.next++
		m.total.merge(ready)
		aggPool.Put(ready)
	}
}
