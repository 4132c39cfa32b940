package core

import (
	"sync"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/task"
)

// Scratch is a reusable analysis arena: the walker state (event heap and
// per-task slices) behind one in-flight event walk. Callers probing many
// related configurations in a tight loop — the Section-V design-space
// searches, batch serving, experiment sweeps — thread one Scratch through
// Options so every walk reuses the same storage instead of round-tripping
// the package pool. The zero value is ready to use.
//
// A Scratch serializes the walks that borrow it and must not be shared
// between concurrent goroutines; give each worker its own. Analyses
// called with a nil Scratch fall back to the package-level walker pool,
// which is safe for concurrent use and still allocation-free in steady
// state.
type Scratch struct {
	walker hiWalker
	inUse  bool

	// plan is the design searches' HI-mode demand plan: capProbe.meets
	// compiles each candidate into it for the HI-mode QPA (qpaHI), so
	// decided probes reuse its columns instead of borrowing the walker.
	plan dbf.Plan
}

// walkerPool recycles walker state across analyses that were not handed
// an explicit Scratch. Entries keep their slices, so a steady stream of
// MinSpeedup/ResetTime/MinSpeedForReset calls reaches 0 allocs/op once
// the pool is warm.
var walkerPool = sync.Pool{New: func() any { return new(hiWalker) }}

// scratchPool recycles whole Scratch arenas for the design-space searches
// (MinimalY, FeasibleXWindow, TuneDeadlines), whose capProbe needs one
// arena for its entire run of walks. Pair every acquire with
// releaseScratch. An arena keeps only compiled columns, never a
// reference to a caller's set, so a pooled one pins nothing.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// borrowScratch attaches a Scratch to o when the caller did not bring
// one, taking it from the package pool. It returns the possibly-updated
// options plus the arena to hand to releaseScratch (nil when the caller's
// own Scratch is used and nothing must be returned).
func borrowScratch(o Options) (Options, *Scratch) {
	if o.Scratch != nil {
		return o, nil
	}
	sc := scratchPool.Get().(*Scratch)
	o.Scratch = sc
	return o, sc
}

// releaseScratch returns a pool-borrowed arena. Safe on nil.
func releaseScratch(sc *Scratch) {
	if sc == nil {
		return
	}
	scratchPool.Put(sc)
}

// acquireWalker returns a walker positioned at Δ = 0 over (s, kind),
// borrowing the caller's Scratch arena when one is set and falling back
// to the package pool otherwise. Pair every acquire with releaseWalker.
func (o Options) acquireWalker(s task.Set, kind dbf.Kind) *hiWalker {
	w := o.pickWalker()
	w.Reset(s, kind)
	return w
}

func (o Options) pickWalker() *hiWalker {
	if sc := o.Scratch; sc != nil && !sc.inUse {
		sc.inUse = true
		return &sc.walker
	}
	return walkerPool.Get().(*hiWalker)
}

// releaseWalker returns the walker to its home (Scratch or pool). The
// walker keeps only its compiled columns, never a reference to the
// caller's set.
func (o Options) releaseWalker(w *hiWalker) {
	if sc := o.Scratch; sc != nil && w == &sc.walker {
		sc.inUse = false
		return
	}
	walkerPool.Put(w)
}
