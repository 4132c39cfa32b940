//go:build !race

package core

// Steady-state allocation regression tests. These pin the PR's headline
// property: with a Scratch arena (or a warm pool) the Theorem-2 and
// Corollary-5 walks touch the heap zero times per call. They are built
// out of race-instrumented runs because -race adds bookkeeping
// allocations that testing.AllocsPerRun would count against us.

import (
	"testing"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// allocProofSet is harmonic (hyperperiod 160) so every walk terminates
// exactly and, crucially, the utilization accumulator never overflows —
// keeping UtilBounds on its allocation-free int64 fast path.
func allocProofSet() task.Set { return benchTuneSet() }

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: Scratch slices grow to size on the first call
	if got := testing.AllocsPerRun(100, fn); got != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, got)
	}
}

func TestAnalysesZeroAllocSteadyState(t *testing.T) {
	s := allocProofSet()
	o := Options{Scratch: new(Scratch)}

	assertZeroAllocs(t, "MinSpeedupOpts", func() {
		if _, err := MinSpeedupOpts(s, o); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "ResetTimeOpts", func() {
		if _, err := ResetTimeOpts(s, rat.Two, o); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "MinSpeedForResetOpts", func() {
		if _, err := MinSpeedForResetOpts(s, 100, o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMinimalYAllocSteadyState pins the design-search allocation budget:
// with a caller Scratch the whole MinimalY bisection allocates a small
// per-call constant — the dbf.SetState carrying the demand aggregates
// across candidates (one state struct plus one working copy of the set)
// and the caller-owned clone of the winner. Crucially the count is
// independent of the number of bisection candidates: transitions are
// in-place {D(HI), T(HI)} edits on the shared state, never materialized
// candidate sets.
func TestMinimalYAllocSteadyState(t *testing.T) {
	s := allocProofSet()
	o := Options{Scratch: new(Scratch)}
	fn := func() {
		if _, _, err := MinimalYOpts(s, rat.Two, o); err != nil {
			t.Fatal(err)
		}
	}
	fn()
	if got := testing.AllocsPerRun(100, fn); got > 10 {
		t.Errorf("MinimalYOpts with Scratch: %v allocs/op in steady state, want a per-call constant ≤ 10", got)
	}
}

// TestPooledPathZeroAllocSteadyState covers the nil-Scratch route through
// the package pool. The pool can in principle be drained by a GC between
// runs, so this asserts a near-zero average rather than exactly zero —
// still far below the dozens of allocations the cold constructor paid.
func TestPooledPathZeroAllocSteadyState(t *testing.T) {
	s := allocProofSet()
	fn := func() {
		if _, err := MinSpeedup(s); err != nil {
			t.Fatal(err)
		}
	}
	fn()
	if got := testing.AllocsPerRun(200, fn); got > 1 {
		t.Errorf("pooled MinSpeedup: %v allocs/op in steady state, want ≤ 1", got)
	}
}

// TestSessionEditAllocs pins the per-edit allocation budget of a Session
// on the prepared FMS set: a C(HI) flip or a D(LO) flip, each served by
// the warm Theorem-2 walk, plus the report it invalidates. The one
// allocation is the report's copy of the set: every demand aggregate
// refolds, and the Lemma-6 sum rounds, without allocating.
func TestSessionEditAllocs(t *testing.T) {
	s := fmsPreparedSet(t)
	for _, p := range []string{task.ParamCHI, task.ParamDLO} {
		ss := reportedSession(t, s)
		down, up := flipEdits(t, s, p)
		n := 0
		fn := func() { editReport(t, ss, [2]task.Edit{down, up}[n%2]); n++ }
		fn()
		if got := testing.AllocsPerRun(100, fn); got > 1 {
			t.Errorf("%s edit + Report: %v allocs/op, want ≤ 1", p, got)
		}
	}
}
