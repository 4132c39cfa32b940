//go:build !race

package sim

// Steady-state allocation regression tests pinning the simulation hot
// path: with a Scratch arena (or the warm package pool) and a reused
// Result, RunInto touches the heap zero times per run once buffers have
// grown — jobs are values in the arena, the admission maps are per-task
// arrays, and the result sorts only fire on actually-unsorted slices.
// Kept out of race-instrumented runs because -race adds bookkeeping
// allocations that testing.AllocsPerRun would count against us.

import (
	"testing"

	"mcspeedup/internal/fms"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

func allocSimCase(t testing.TB) (task.Set, Workload) {
	t.Helper()
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	// Every fifth HI job overruns, so the run exercises mode switches,
	// carry-over kills, episode resets, and miss bookkeeping.
	w := SynchronousPeriodic(set, 20*set.MaxPeriod(), func(_, seq int) bool { return seq%5 == 0 })
	return set, w
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: Scratch and Result buffers grow to size on the first call
	if got := testing.AllocsPerRun(100, fn); got != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, got)
	}
}

func TestRunIntoZeroAllocSteadyState(t *testing.T) {
	set, w := allocSimCase(t)
	c, err := Compile(set, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Speedup: rat.Two}
	var (
		res Result
		sc  Scratch
	)
	assertZeroAllocs(t, "RunInto(Scratch)", func() {
		if err := c.RunInto(&res, &sc, cfg); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "RunInto(pool)", func() {
		if err := c.RunInto(&res, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "RunWorkload", func() {
		if err := c.RunWorkload(&res, &sc, w, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.Completed == 0 || len(res.Episodes) == 0 {
		t.Fatalf("degenerate steady-state case: %d completed, %d episodes",
			res.Completed, len(res.Episodes))
	}
}

// TestRunAllocsBounded pins the convenience wrapper: Run hands the
// caller a fresh Result (one unavoidable allocation, since it escapes)
// but everything behind it — validation, arena, event loop — must come
// from the warm pool. Measured on an overrun-free workload so the
// returned Result's own slices stay nil.
func TestRunAllocsBounded(t *testing.T) {
	set, _ := allocSimCase(t)
	w := SynchronousPeriodic(set, 20*set.MaxPeriod(), NoOverrun)
	cfg := Config{Speedup: rat.Two}
	if _, err := Run(set, w, cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := Run(set, w, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Per-call cost: the returned *Result, the Compiled, and
	// Workload.Validate's per-task arrival slice. Pinned so the wrapper
	// can never quietly regress toward the old per-job regime.
	if got > 3 {
		t.Errorf("Run: %v allocs/op, want <= 3 (fresh Result, Compiled, validation slice)", got)
	}
}
