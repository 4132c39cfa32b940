package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Property tests pinning the witness-warm-start certificate: every
// design-space search must return byte-identical results to its cold,
// materialize-every-candidate reference (ref_test.go), across generator
// task sets and caps straddling feasibility. The certificate is only
// allowed to skip walks whose comparison outcome it has proved, so any
// divergence here is a soundness bug, not a tuning regression.

// renderSet gives a byte-exact fingerprint of a set for equality checks.
func renderSet(s task.Set) string {
	if s == nil {
		return "<nil>"
	}
	return s.Table()
}

func genSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(20260805))
	p := gen.Defaults()
	sets := make([]task.Set, 0, n)
	for i := 0; i < n; i++ {
		u := 0.4 + 0.5*rnd.Float64()
		sets = append(sets, p.MustSet(rnd, u))
	}
	return sets
}

func TestMinimalYWarmColdIdentical(t *testing.T) {
	// prunedSets adds the MinimalX preparations of the generator sets:
	// raw generator sets have zero carry-over gaps and reject every cap.
	for i, s := range prunedSets(t, 25) {
		// Caps straddling feasibility exercise accept, reject, and error paths.
		for _, cap := range []rat.Rat{rat.New(11, 10), rat.New(3, 2), rat.Two} {
			yW, setW, errW := MinimalY(s, cap)
			yC, setC, errC := referenceMinimalY(s, cap)
			if fmt.Sprint(errW) != fmt.Sprint(errC) {
				t.Fatalf("set %d cap %v: warm err %v != cold err %v", i, cap, errW, errC)
			}
			if !yW.Eq(yC) || renderSet(setW) != renderSet(setC) {
				t.Fatalf("set %d cap %v: warm (%v) != cold (%v)\nwarm:\n%s\ncold:\n%s",
					i, cap, yW, yC, renderSet(setW), renderSet(setC))
			}
		}
	}
}

func TestFeasibleXWindowWarmColdIdentical(t *testing.T) {
	for i, s := range genSets(t, 25) {
		for _, cap := range []rat.Rat{rat.New(11, 10), rat.New(3, 2), rat.Two} {
			loW, hiW, errW := FeasibleXWindow(s, cap)
			loC, hiC, errC := referenceFeasibleXWindow(s, cap)
			if fmt.Sprint(errW) != fmt.Sprint(errC) {
				t.Fatalf("set %d cap %v: warm err %v != cold err %v", i, cap, errW, errC)
			}
			if errW == nil && (!loW.Eq(loC) || !hiW.Eq(hiC)) {
				t.Fatalf("set %d cap %v: warm [%v,%v] != cold [%v,%v]", i, cap, loW, hiW, loC, hiC)
			}
		}
	}
}

func TestTuneDeadlinesWarmColdIdentical(t *testing.T) {
	for i, s := range genSets(t, 20) {
		for _, step := range []rat.Rat{rat.New(1, 16), rat.New(1, 4)} {
			resW, errW := TuneDeadlines(s, step)
			resC, errC := referenceTuneDeadlines(s, step)
			if fmt.Sprint(errW) != fmt.Sprint(errC) {
				t.Fatalf("set %d step %v: warm err %v != cold err %v", i, step, errW, errC)
			}
			if errW != nil {
				continue
			}
			if !resW.Speedup.Eq(resC.Speedup) || !resW.UniformSpeedup.Eq(resC.UniformSpeedup) ||
				resW.Rounds != resC.Rounds || renderSet(resW.Set) != renderSet(resC.Set) {
				t.Fatalf("set %d step %v: warm %+v != cold %+v", i, step, resW, resC)
			}
		}
	}
}

// TestMinimalXDeterministic pins that MinimalX (which the warm-started
// searches build on) is a pure function of its input across repeated
// calls on generator sets.
func TestMinimalXDeterministic(t *testing.T) {
	for i, s := range genSets(t, 10) {
		x1, set1, err1 := MinimalX(s)
		x2, set2, err2 := MinimalX(s)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("set %d: err %v != %v", i, err1, err2)
		}
		if err1 == nil && (!x1.Eq(x2) || renderSet(set1) != renderSet(set2)) {
			t.Fatalf("set %d: repeated MinimalX diverged: %v vs %v", i, x1, x2)
		}
	}
}
