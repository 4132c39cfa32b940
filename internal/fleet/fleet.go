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
// one chunk aggregate. Run allocates every aggregate itself, so a
// fleet's allocation count depends on its chunk count only, not on
// scheduling or on what a garbage collection freed.
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
	// finite bound; episodes are then unjudged rather than violating. The
	// walk gets its own arena rather than one from core's pool, so this
	// call's allocations do not depend on what a collection freed.
	bound := rat.PosInf
	if rr, err := core.ResetTimeOpts(p.Set, p.Speedup, core.Options{Scratch: new(core.Scratch)}); err == nil {
		bound = rr.Reset
	}
	boundF := bound.Float64()
	// The aggregate reads only each run's miss count.
	cfg := sim.Config{Speedup: p.Speedup, Budget: p.Budget, CountMissesOnly: true}
	budgetF := p.Budget.Float64()

	dp, err := newDrawPlan(&p, denseBucketBits)
	if err != nil {
		return nil, err
	}

	nChunks := (p.Runs + chunkSize - 1) / chunkSize
	m := newMerger(nChunks)
	err = par.ForEach(nChunks, par.Workers(p.Workers), func(ci int) error {
		a := newAgg()
		// dp is copied onto the chunk's stack: taking the address of the
		// captured plan itself would move it to the heap.
		var (
			res sim.Result
			sc  sim.Scratch
			wl  sim.Workload
			sm  sampler
			dp  = dp
		)
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > p.Runs {
			hi = p.Runs
		}
		for r := lo; r < hi; r++ {
			wl = sm.workload(wl[:0], &dp, r)
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

// denseBucketBits bounds the sampler's table at one bucket per release:
// up to 2^18 uint32 offsets (1 MiB). Past that a bucket covers about
// 2^crowdBits releases, so the table stays at 4 bytes per 8 releases
// beside the two workload buffers' 48 bytes per release.
const (
	denseBucketBits = 18
	crowdBits       = 3
)

// drawPlan is what every replicate of one fleet draws from: each task's
// draw constants, the release bound, and the bucket geometry. It is
// built once per Run; every chunk's sampler reads its task table.
type drawPlan struct {
	seed    int64
	horizon task.Time
	tasks   []taskDraws
	// releases is Σ(⌊(H−1)/T_i⌋+1), the most releases a replicate draws.
	releases int
	// A release at t counts in bucket t>>shift, one of buckets.
	shift   uint
	buckets int
}

// taskDraws holds one task's precomputed draws: its period, its first
// release in [0, T), its jitter in [0, ⌊T/2⌋] and its ACET.
type taskDraws struct {
	period        task.Time
	first, jitter gen.Bound
	acet          gen.TaskACET
}

// maxReleases caps the release bound of one replicate. The sampler
// keeps two workload buffers of that many 24-byte arrivals, so the cap
// holds them to 1.5 GiB; it is far below what the bucket table's uint32
// offsets index.
const maxReleases = 1 << 25

// releaseBound returns Σ(⌊(H−1)/T_i⌋+1) for horizon h: a task's first
// release is at or after 0 and the next ones at least T(LO) apart, so
// no replicate releases more. A bound above maxReleases is an error.
func releaseBound(s task.Set, h task.Time) (int, error) {
	var n uint64
	for i := range s {
		// n ≤ maxReleases before the addition and each term is below
		// 2^63, so the sum cannot wrap.
		n += uint64((h-1)/s[i].Period[task.LO]) + 1
		if n > maxReleases {
			return 0, fmt.Errorf("fleet: horizon %d releases more than %d jobs per run (the per-replicate release limit)", h, maxReleases)
		}
	}
	return int(n), nil
}

// newDrawPlan prepares p's replicates. The bucket table has the release
// bound's entries rounded up to a power of two while that is at most
// 2^denseBits, and 2^crowdBits times fewer (but at least 2^denseBits)
// beyond. p's set must have passed sim.CompileSet.
func newDrawPlan(p *Params, denseBits int) (drawPlan, error) {
	h := p.Horizon
	releases, err := releaseBound(p.Set, h)
	if err != nil {
		return drawPlan{}, err
	}
	dp := drawPlan{seed: p.Seed, horizon: h, tasks: make([]taskDraws, len(p.Set)), releases: releases}
	for ti := range p.Set {
		tk := &p.Set[ti]
		period := tk.Period[task.LO]
		dp.tasks[ti] = taskDraws{
			period: period,
			first:  gen.NewBound(int64(period)),
			jitter: gen.NewBound(int64(period/2) + 1),
			acet:   p.ACET.Draw(tk.Crit, tk.WCET[task.LO], tk.WCET[task.HI]),
		}
	}
	tableBits := bits.Len(uint(releases - 1))
	if tableBits > denseBits {
		tableBits = max(denseBits, tableBits-crowdBits)
	}
	dp.shift = uint(max(0, bits.Len64(uint64(h-1))-tableBits))
	dp.buckets = int((h-1)>>dp.shift) + 1
	return dp, nil
}

// sampler draws replicate workloads. Each task draws from its own
// (seed, replicate, task) substream: jittered sporadic releases at T(LO)
// spacing plus up to half a period of jitter, demands from the ACET
// bands. A workload is therefore a pure function of (Params, r),
// independent of scheduling order, and valid by construction for
// sim.RunWorkload: sorted, demands within caps, T(LO) spacing.
//
// The sampler draws each task's releases in one loop per task
// (drawTask) into a task-major buffer. A second pass counts them in
// buckets on the high bits of their release instants, one prefix sum
// turns the counts into offsets, and one stable scatter moves the
// releases into dst by bucket. A task's releases ascend and the tasks
// come in index order, so inside a bucket ties stay in task order; an
// insertion fix-up on At within the buckets then yields exactly the
// (At, Task) order, with the same per-task draws. The table is sized
// from the release bound (see newDrawPlan), so a bucket holds about one
// release, or about eight past the dense cap, and the fix-up moves each
// record past few others. Each chunk owns one sampler and reuses it
// across its runs, so sampling allocates nothing once the buffers have
// grown.
type sampler struct {
	buf    sim.Workload // the draws, task-major
	counts []uint32     // per bucket: releases, then scatter cursors
	moves  int          // records the last fix-up moved
}

// workload generates replicate r's arrival sequence into dst (resliced,
// capacity reused).
func (sm *sampler) workload(dst sim.Workload, dp *drawPlan, r int) sim.Workload {
	n, shift := dp.releases, dp.shift
	if cap(dst) < n {
		dst = make(sim.Workload, 0, n)
	}
	if cap(sm.buf) < n {
		sm.buf = make(sim.Workload, 0, n)
	}
	if cap(sm.counts) < dp.buckets {
		sm.counts = make([]uint32, dp.buckets)
	}
	src := sm.buf[:0]
	for ti := range dp.tasks {
		src = drawTask(src, &dp.tasks[ti], dp.seed, r, ti, dp.horizon)
	}
	counts := sm.counts[:dp.buckets]
	clear(counts)
	for k := range src {
		counts[uint64(src[k].At)>>shift]++
	}
	// Each bucket's first output index: the count of earlier buckets.
	next := uint32(0)
	for b, c := range counts {
		counts[b], next = next, next+c
	}
	dst = dst[:len(src)]
	for k := range src {
		b := uint64(src[k].At) >> shift
		dst[counts[b]] = src[k]
		counts[b]++
	}
	sm.moves = fixup(dst)
	return dst
}

// drawTask appends task ti's releases before h in replicate r to buf, in
// release order. buf's capacity is the release bound, so append never
// grows it. Stream.Int63n, TaskACET.Next and Stream.Below are written
// out from their pieces and the stream advances only through its value
// method Next, so the loop makes no call and rnd's address is never
// taken: its state stays in a register. Bucket counting is left to the
// caller, so that the loop keeps few values live.
func drawTask(buf sim.Workload, d *taskDraws, seed int64, r, ti int, h task.Time) sim.Workload {
	rnd, u := gen.NewStream(seed, r, ti).Next()
	for !d.first.Accepts(u >> 1) {
		rnd, u = rnd.Next()
	}
	for at := task.Time(d.first.Reduce(u >> 1)); at < h; {
		var c task.Time
		rnd, u = rnd.Next()
		if d.acet.CanOverrun() && d.acet.Overruns(u) {
			rnd, u = rnd.Next()
			for !d.acet.OverrunAccepts(u >> 1) {
				rnd, u = rnd.Next()
			}
			c = d.acet.Overrun(u >> 1)
		} else {
			if d.acet.CanOverrun() { // u went to the overrun test
				rnd, u = rnd.Next()
			}
			c = d.acet.Band(u)
		}
		buf = append(buf, sim.Arrival{Task: ti, At: at, Demand: c})
		at += d.period
		if d.period > 1 { // a jitter of ⌊T/2⌋ = 0 draws nothing
			rnd, u = rnd.Next()
			for !d.jitter.Accepts(u >> 1) {
				rnd, u = rnd.Next()
			}
			at += task.Time(d.jitter.Reduce(u >> 1))
		}
	}
	return buf
}

// fixup insertion-sorts w on At, moving a record only past records with
// a strictly later At, so ties keep their order. It returns the number
// of moves. After the bucket scatter only records that share a bucket
// are out of order, so only they move.
func fixup(w sim.Workload) (moves int) {
	for i := 1; i < len(w); i++ {
		if w[i].At >= w[i-1].At {
			continue
		}
		x, j := w[i], i
		for ; j > 0 && w[j-1].At > x.At; j-- {
			w[j] = w[j-1]
		}
		w[j] = x
		moves += i - j
	}
	return moves
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

func newAgg() *agg {
	return &agg{episodeLen: stats.NewHistogram(histMin, histMax, histPerDecade)}
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
// chunk lands, then drain in sequence.
type merger struct {
	mu    sync.Mutex
	next  int
	slots []*agg
	total *agg
}

func newMerger(nChunks int) *merger {
	return &merger{slots: make([]*agg, nChunks), total: newAgg()}
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
	}
}
