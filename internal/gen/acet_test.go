package gen

import (
	"math"
	"testing"

	"mcspeedup/internal/task"
)

func TestACETSampleBounds(t *testing.T) {
	a := DefaultACET()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	rnd := NewStream(7, 0, 0)
	const cLO, cHI = 10, 25
	overruns := 0
	hot := a
	hot.OverrunProb = 0.5
	for i := 0; i < 20000; i++ {
		if d := a.Sample(&rnd, task.LO, cLO, cHI); d < 1 || d > cLO {
			t.Fatalf("LO sample %d outside [1, %d]", d, cLO)
		}
		d := hot.Sample(&rnd, task.HI, cLO, cHI)
		if d < 1 || d > cHI {
			t.Fatalf("HI sample %d outside [1, %d]", d, cHI)
		}
		if d > cLO {
			overruns++
		}
	}
	if overruns < 8000 || overruns > 12000 {
		t.Errorf("overrun count %d far from 50%% of 20000", overruns)
	}
	// A task that cannot overrun must never exceed C(LO), whatever the
	// configured probability.
	always := a
	always.OverrunProb = 1
	for i := 0; i < 100; i++ {
		if d := always.Sample(&rnd, task.HI, cLO, cLO); d > cLO {
			t.Fatalf("overrun %d sampled from task with C(HI) = C(LO)", d)
		}
	}
	// Tiny budgets clamp up to the minimum legal demand.
	tiny := ACET{LOFloor: 0, LOCeil: 0, HIFloor: 0, HICeil: 0}
	if d := tiny.Sample(&rnd, task.LO, 1, 1); d != 1 {
		t.Fatalf("clamped sample = %d, want 1", d)
	}
}

func TestACETSampleDeterministic(t *testing.T) {
	a := DefaultACET()
	draw := func() []task.Time {
		rnd := NewStream(99, 0, 0)
		out := make([]task.Time, 64)
		for i := range out {
			out[i] = a.Sample(&rnd, task.Crit(i%2), 20, 37)
		}
		return out
	}
	x, y := draw(), draw()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("draw %d: %d != %d for identical streams", i, x[i], y[i])
		}
	}
}

func TestACETValidateRejects(t *testing.T) {
	for name, a := range map[string]ACET{
		"negative floor":  {LOFloor: -0.1, LOCeil: 1},
		"ceil above one":  {LOCeil: 1.5},
		"inverted band":   {HIFloor: 0.9, HICeil: 0.3, LOCeil: 1},
		"bad probability": {LOCeil: 1, HICeil: 1, OverrunProb: 2},
	} {
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, a)
		}
	}
}

// TestOverrunsMatchesFloat64 holds the integer overrun test to the
// float comparison it replaces, Float64() < p, at probabilities on and
// next to multiples of 2^-53 and at draws on either side of the cut.
func TestOverrunsMatchesFloat64(t *testing.T) {
	rnd := NewStream(5, 0, 0)
	probs := []float64{0, 1, 0.001, 0.5, 1.0 / 3, 0x1p-53, 0x1p-60, math.Nextafter(0.001, 1), math.Nextafter(1, 0)}
	for i := 0; i < 64; i++ {
		probs = append(probs, rnd.Float64())
	}
	for _, p := range probs {
		d := ACET{LOCeil: 1, HICeil: 1, OverrunProb: p}.Draw(task.HI, 2, 5)
		cut := uint64(math.Ceil(p*(1<<53))) << 11 // the smallest u the test calls no overrun
		draws := []uint64{0, math.MaxUint64, cut, cut - 1, cut + 1<<11 - 1, cut - 1<<11}
		for i := 0; i < 256; i++ {
			draws = append(draws, rnd.Uint64())
		}
		for _, u := range draws {
			if got, want := d.Overruns(u), Unit(u) < p; got != want {
				t.Fatalf("p %v, u %#x: Overruns %v, Float64() < p %v", p, u, got, want)
			}
		}
	}
}
