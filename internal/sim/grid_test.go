package sim

import (
	"math/rand"
	"strings"
	"testing"

	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// fineSpeed is a speed on the 2^24 scale, as FromFloat produces for a
// float speed from a request: its tick grids are as fine as 1/2^48 with
// an integer budget and 1/2^49 with a half-integer one.
var fineSpeed = rat.New(16777213, 16777216)

// TestRunRejectsGridOverflow pins the tick grid's span check: at a
// 2^24-scale speed with a fractional budget, a long FMS run cannot fit
// its finest unit in int64, and every entry point must say so with an
// error instead of wrapping or panicking.
func TestRunRejectsGridOverflow(t *testing.T) {
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	w := SynchronousPeriodic(set, 20*set.MaxPeriod(), AlwaysOverrun)
	cfg := Config{Speedup: fineSpeed, Budget: rat.New(7, 3)}
	check := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "tick grid") {
			t.Errorf("%s: error %v, want a tick-grid error", name, err)
		}
	}
	_, err = Run(set, w, cfg)
	check("Run", err)
	c, err := Compile(set, w)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	check("RunInto", c.RunInto(&res, nil, cfg))
	cs, err := CompileSet(set)
	if err != nil {
		t.Fatal(err)
	}
	check("RunWorkload", cs.RunWorkload(&res, nil, w, cfg))

	// A non-finite or huge speed numerator cannot even form the grid.
	_, err = Run(set, w, Config{Speedup: rat.FromInt64(1 << 62), Budget: rat.New(1, 3)})
	check("Run at speed 2^62", err)
}

// TestFineSpeedMatchesReference runs the same 2^24-scale speed where the
// grid does fit — a set of short periods over a short horizon, with and
// without a budget — and holds the result to the reference simulator.
func TestFineSpeedMatchesReference(t *testing.T) {
	p := gen.Defaults()
	p.PeriodMin, p.PeriodMax = 10, 60
	set := p.MustSet(rand.New(rand.NewSource(3)), 0.8)
	w := SynchronousPeriodic(set, 4*set.MaxPeriod(), func(_, seq int) bool { return seq%2 == 0 })
	for _, cfg := range []Config{
		{Speedup: fineSpeed, CollectJobs: true, CollectTrace: true},
		{Speedup: fineSpeed, Budget: rat.FromInt64(3), CollectJobs: true, CollectTrace: true},
	} {
		want, err := refRun(set, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(set, w, cfg)
		if err != nil {
			t.Fatalf("budget %v: %v", cfg.Budget, err)
		}
		assertSameResult(t, "fine speed, budget "+cfg.Budget.String(), want, got)
		if len(got.Episodes) == 0 {
			t.Fatalf("budget %v: no mode switch", cfg.Budget)
		}
		if cfg.Budget.Sign() > 0 && !got.Episodes[0].BudgetTripped {
			t.Fatalf("budget %v: the first episode did not trip", cfg.Budget)
		}
	}
}

// TestGridExactWorkFallback pins the grid check's exact fallback: a run
// whose work bound len(w)·max C(HI) does not fit the fine grid, but whose
// summed demand does, must run, and match the reference. One HI task has
// a large C(HI); every job but its one small overrun is a unit LO job.
func TestGridExactWorkFallback(t *testing.T) {
	set := task.Set{task.NewHI("H", 6000, 3000, 6000, 1, 5000), task.NewLO("L", 2, 2, 1)}
	w := Workload{{Task: 0, At: 0, Demand: 2}}
	for at := task.Time(0); at < 400; at += 2 {
		w = append(w, Arrival{Task: 1, At: at, Demand: 1})
	}
	cfg := Config{Speedup: fineSpeed, Budget: rat.New(7, 3)}
	tk, ok := rat.NewTicks(cfg.Speedup, cfg.Budget)
	last, n := int64(w[len(w)-1].At), int64(len(w))
	if !ok || tk.Fits(last, n*5000, 6000) || !tk.Fits(last, n+1, 6000) {
		t.Fatal("fixture drifted: the work bound must fail the grid and the exact work fit it")
	}
	c, err := Compile(set, w)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res Result
		sc  Scratch
	)
	for _, cfg := range []Config{cfg, {Speedup: fineSpeed, Budget: cfg.Budget, CollectJobs: true, CollectTrace: true}} {
		want, err := refRun(set, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunInto(&res, &sc, cfg); err != nil {
			t.Fatalf("RunInto: %v", err)
		}
		if len(res.Episodes) == 0 {
			t.Fatal("no mode switch: the run never reached the fine grid")
		}
		assertSameResult(t, "exact work fallback", want, &res)
	}
}
