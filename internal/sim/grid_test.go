package sim

import (
	"math/rand"
	"strings"
	"testing"

	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
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
