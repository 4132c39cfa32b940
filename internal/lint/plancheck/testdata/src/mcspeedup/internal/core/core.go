// Package core is the plancheck testdata mirror of internal/core: the
// walker shape, the walk options with their event budget, and both the
// clean and the flagged ways of starting a walk and building a plan.
package core

import "mcspeedup/internal/dbf"

// Options mirrors the real walk options.
type Options struct {
	MaxEvents int
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 1_000_000
	}
	return o.MaxEvents
}

// hiWalker mirrors the real walker: it embeds the plan as a zero-value
// field (fine — not a composite literal) and its methods are exempt from
// the budget rule.
type hiWalker struct {
	plan dbf.Plan
	pos  int64
}

// Reset is the mechanism: it compiles the plan.
func (w *hiWalker) Reset(s []int) { w.plan.Compile(s, 0) }

// Plan hands out the compiled plan.
func (w *hiWalker) Plan() *dbf.Plan { return &w.plan }

func (w *hiWalker) Next() bool { return false }

// SkipTo is a walker method: calling Next inside it must not trigger the
// budget rule.
func (w *hiWalker) SkipTo(target int64) {
	w.pos = target
	w.Next()
}

func (o Options) acquireWalker(s []int) *hiWalker {
	w := &hiWalker{}
	w.Reset(s)
	return w
}

func (o Options) releaseWalker(w *hiWalker) {}

// budgetedWalk honors the budget through the maxEvents helper and probes
// through the walker's plan.
func budgetedWalk(o Options, s []int) int64 {
	w := o.acquireWalker(s)
	defer o.releaseWalker(w)
	for events := 0; events < o.maxEvents(); events++ {
		if !w.Next() {
			break
		}
	}
	return w.Plan().Value(4)
}

// fieldBudget reads the MaxEvents field directly instead of the helper —
// also fine.
func fieldBudget(o Options, s []int) {
	w := o.acquireWalker(s) // no diagnostic: MaxEvents consulted below
	defer o.releaseWalker(w)
	for i := 0; i < o.MaxEvents; i++ {
		if !w.Next() {
			break
		}
	}
}

// unbudgetedWalk walks with no event cap at all.
func unbudgetedWalk(o Options, s []int) {
	w := o.acquireWalker(s) // want `without consulting Options.MaxEvents`
	defer o.releaseWalker(w)
	for w.Next() {
	}
}

// handRolled builds a plan by literal, bypassing the compile entry
// points (flagged in every package outside internal/dbf).
func handRolled() dbf.Plan {
	return dbf.Plan{} // want `dbf.Plan composite literal`
}

// probeOnly is clean: core may compile and evaluate plans directly.
func probeOnly(s []int, dst, deltas []int64) []int64 {
	p := dbf.CompilePlan(s, 0)
	if _, ok := p.ValueCapped(3, 7); !ok {
		return dst
	}
	return p.BulkEval(dst, deltas)
}
