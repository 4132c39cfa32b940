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
	"math/bits"
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
	// The aggregate reads only each run's miss count.
	cfg := sim.Config{Speedup: p.Speedup, Budget: p.Budget, CountMissesOnly: true}
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
// The sampler draws each task's releases in one pass into a task-major
// buffer, then orders them with a stable LSD radix sort on At. A task's
// releases ascend and the tasks come in index order, so stability makes
// ties come out in (At, Task) order: exactly the sorted sequence, with
// the same per-task draws. Each chunk owns one sampler and reuses it
// across its runs, so sampling allocates nothing once the buffers have
// grown.
type sampler struct {
	tasks  []taskDraws
	buf    sim.Workload  // the radix sort's other buffer
	counts []digitCounts // one digit histogram per pass
}

// taskDraws holds one task's precomputed per-job draws: its jitter in
// [0, ⌊T/2⌋] and its ACET.
type taskDraws struct {
	jitter gen.Bound
	acet   gen.TaskACET
}

// Radix geometry: a pass sorts at most maxDigitBits bits of At.
const (
	maxDigitBits = 11
	digitMask    = 1<<maxDigitBits - 1
)

// digitCounts is one pass's digit histogram, then its output cursors.
// Masking a digit with digitMask as well as the pass's own mask lets the
// compiler drop the bounds checks.
type digitCounts [1 << maxDigitBits]uint32

// radixPasses returns the pass count and digit width that sort release
// instants in [0, horizon): as few passes of at most maxDigitBits bits
// as cover the bit length of horizon−1, the bits split evenly between
// them. A horizon of 1 needs no pass.
func radixPasses(horizon task.Time) (passes, width int) {
	n := bits.Len64(uint64(horizon - 1))
	passes = (n + maxDigitBits - 1) / maxDigitBits
	if passes == 0 {
		return 0, 0
	}
	return passes, (n + passes - 1) / passes
}

// workload generates replicate r's arrival sequence into dst (resliced,
// capacity reused).
func (sm *sampler) workload(dst sim.Workload, p *Params, r int) sim.Workload {
	set, h := p.Set, p.Horizon
	if cap(sm.tasks) < len(set) {
		sm.tasks = make([]taskDraws, len(set))
	}
	sm.tasks = sm.tasks[:len(set)]
	// Each task releases at most ⌊(H−1)/T⌋+1 jobs before H: its first
	// release is at or after 0, the next ones at least T apart.
	releases := 0
	for ti := range set {
		tk := &set[ti]
		period := tk.Period[task.LO]
		sm.tasks[ti] = taskDraws{
			jitter: gen.NewBound(int64(period/2) + 1),
			acet:   p.ACET.Draw(tk.Crit, tk.WCET[task.LO], tk.WCET[task.HI]),
		}
		releases += int((h-1)/period) + 1
	}
	if cap(dst) < releases {
		dst = make(sim.Workload, 0, releases)
	}
	if cap(sm.buf) < releases {
		sm.buf = make(sim.Workload, 0, releases)
	}
	passes, width := radixPasses(h)
	// The passes alternate between the buffers; draw into the one that
	// makes the last pass write dst.
	src, other := dst[:0], sm.buf[:0]
	if passes%2 == 1 {
		src, other = other, src
	}
	var rnd gen.Stream
	for ti := range set {
		d := &sm.tasks[ti]
		period := set[ti].Period[task.LO]
		rnd.Reseed(p.Seed, r, ti)
		at := task.Time(rnd.Int63n(int64(period)))
		for at < h {
			src = append(src, sim.Arrival{Task: ti, At: at, Demand: d.acet.Next(&rnd)})
			at += period
			if period > 1 { // a jitter of ⌊T/2⌋ = 0 draws nothing
				at += task.Time(rnd.Below(&d.jitter))
			}
		}
	}
	return sm.radixSort(src, other[:len(src)], passes, width)
}

// radixSort stably sorts src by At, passes digits of width bits from
// the least significant up, alternating between src and tmp (of src's
// length); it returns the buffer the last pass wrote, src itself when
// passes is 0. Every pass's digit histogram is counted from src before
// the first scatter: a pass moves records, never changes their At.
func (sm *sampler) radixSort(src, tmp sim.Workload, passes, width int) sim.Workload {
	if passes == 0 {
		return src
	}
	if len(sm.counts) < passes {
		sm.counts = make([]digitCounts, passes)
	}
	counts, size := sm.counts[:passes], 1<<width
	mask := uint64(size - 1)
	for p := range counts {
		c, shift := &counts[p], p*width
		clear(c[:size])
		for i := range src {
			c[uint64(src[i].At)>>shift&mask&digitMask]++
		}
	}
	for p := range counts {
		// Each digit's first output index: the count of smaller digits.
		c, next := &counts[p], uint32(0)
		for d, n := range c[:size] {
			c[d], next = next, next+n
		}
		shift := p * width
		for i := range src {
			d := uint64(src[i].At) >> shift & mask & digitMask
			tmp[c[d]] = src[i]
			c[d]++
		}
		src, tmp = tmp, src
	}
	return src
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
	a.misses += int64(res.MissCount)
	if res.MissCount > 0 {
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
