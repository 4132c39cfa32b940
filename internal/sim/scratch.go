package sim

import (
	"sync"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Scratch is a reusable simulation arena: the pending-job table and
// per-task admission arrays behind one in-flight run, in the style of
// core.Scratch. Callers driving many runs in a tight loop — the fleet
// Monte-Carlo engine, response-time sweeps, batch serving — thread one
// Scratch through Compiled.RunInto so every run reuses the same storage
// instead of round-tripping the package pool. The zero value is ready to
// use.
//
// A Scratch serializes the runs that borrow it and must not be shared
// between concurrent goroutines; give each worker its own. Runs called
// with a nil Scratch fall back to the package-level pool, which is safe
// for concurrent use and still allocation-free in steady state.
type Scratch struct {
	inUse bool

	// pending holds the live jobs by value; capacity is retained across
	// runs. lastAdmitted/seqs are per-task arrays replacing the old
	// map[int] admission state: seqs[i] > 0 means task i has had an
	// admitted arrival.
	pending      []jobState
	lastAdmitted []task.Time
	seqs         []int32
	// cLO[i] is task i's C(LO), the overrun threshold skipLO reads.
	cLO []task.Time

	// Per-run state, reset by begin and cleared by finish so a pooled
	// arena never pins a caller's task set or result.
	tasks task.Set
	cfg   Config
	res   *Result
	// skip enables skipLO: the set is LO-schedulable and the run
	// collects neither jobs nor a trace. skipped counts the jobs skipLO
	// committed in this run, so tests can see that the shortcut ran.
	skip    bool
	skipped int

	// The clock runs on the integer grid of rat.Ticks: now, expiry and
	// every pending deadline are in time ticks of tu per unit, and
	// pending work is in work ticks of wu per unit. The grid changes at
	// the mode switch, the budget trip and the reset.
	ticks         rat.Ticks
	now           int64
	tu, wu        int64
	mode          task.Crit
	speed         rat.Rat // the speed in force, as trace segments record it
	terminatedNow bool
	episodeStart  int64 // the switch instant; switches happen on the unit grid
	expiry        int64 // budget expiry; never when inactive
	// endAt/endUnit is the latest execution end, the run's EndTime.
	endAt, endUnit int64
}

// simScratchPool recycles arenas for runs that were not handed an
// explicit Scratch (including every sim.Run call). Entries keep their
// slices, so a steady stream of runs reaches 0 allocs/op once the pool
// is warm.
var simScratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// borrow returns sc when it is free, falling back to the package pool
// when sc is nil or mid-run. The second return is the arena to hand back
// to the pool afterwards (nil when the caller's own Scratch was used).
func borrow(sc *Scratch) (*Scratch, *Scratch) {
	if sc != nil && !sc.inUse {
		return sc, nil
	}
	pooled := simScratchPool.Get().(*Scratch)
	return pooled, pooled
}

// begin readies the arena for one run over s on the grid t.
func (sc *Scratch) begin(s task.Set, cfg Config, t rat.Ticks, res *Result) {
	sc.inUse = true
	sc.ticks = t
	sc.tasks = s
	sc.cfg = cfg
	sc.res = res
	sc.pending = sc.pending[:0]
	sc.skipped = 0
	if n := len(s); cap(sc.lastAdmitted) < n {
		times := make([]task.Time, 2*n)
		sc.lastAdmitted, sc.cLO = times[:n:n], times[n:]
		sc.seqs = make([]int32, n)
	} else {
		sc.lastAdmitted = sc.lastAdmitted[:len(s)]
		sc.seqs = sc.seqs[:len(s)]
		sc.cLO = sc.cLO[:len(s)]
		for i := range sc.seqs {
			sc.lastAdmitted[i] = 0
			sc.seqs[i] = 0
		}
	}
	for i := range s {
		sc.cLO[i] = s[i].WCET[task.LO]
	}
	sc.now, sc.tu, sc.wu = 0, 1, 1
	sc.mode = task.LO
	sc.speed = rat.One
	sc.terminatedNow = false
	sc.episodeStart = 0
	sc.expiry = never
	sc.endAt, sc.endUnit = 0, 1
}

// finish drops the per-run references (so a pooled arena never pins the
// caller's set or result) and marks the arena free.
func (sc *Scratch) finish() {
	sc.tasks = nil
	sc.res = nil
	sc.inUse = false
}
