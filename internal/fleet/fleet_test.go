package fleet

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mcspeedup/internal/core"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// preparedFMS is the flight-management case study with y = 2 degradation
// and minimal virtual deadlines — the configuration whose analytical
// guarantees (schedulability at s, finite Δ_R) the fleet validates.
func preparedFMS(t testing.TB) task.Set {
	t.Helper()
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	set, err = set.DegradeLO(rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	_, prepared, err := core.MinimalX(set)
	if err != nil {
		t.Fatal(err)
	}
	return prepared
}

func genSet(t testing.TB, seed int64) task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	return gen.Defaults().MustSet(rnd, 0.6)
}

// hotACET trips mode switches often enough that a small fleet still
// observes hundreds of episodes.
func hotACET() gen.ACET {
	a := gen.DefaultACET()
	a.OverrunProb = 0.05
	return a
}

func TestFleetWorkersInvariance(t *testing.T) {
	set := genSet(t, 1)
	base := Params{
		Set: set, Runs: 3*chunkSize + 17, Seed: 42,
		Speedup: rat.Two, Horizon: 4 * set.MaxPeriod(), ACET: hotACET(),
	}
	var want []byte
	for _, workers := range []int{1, 3, 16} {
		p := base
		p.Workers = workers
		s, err := Run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := s.JSON()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		if want == nil {
			want = got
			if s.Episodes == 0 {
				t.Fatal("degenerate fleet: no mode switches observed")
			}
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d summary diverged:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
}

// TestFleetValidatesResetBound is the empirical validation claim: on the
// prepared FMS set at a speed above s_min, no observed episode may
// exceed the Corollary-5 Δ_R bound and no deadline may be missed.
func TestFleetValidatesResetBound(t *testing.T) {
	set := preparedFMS(t)
	s, err := Run(Params{
		Set: set, Runs: 600, Seed: 7,
		Speedup: rat.Two, Horizon: 6 * set.MaxPeriod(), ACET: hotACET(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Episodes == 0 {
		t.Fatal("no mode switches: the validation observed nothing")
	}
	if s.ResetBound == rat.PosInf.String() {
		t.Fatalf("Δ_R bound is infinite at speed 2 on the prepared FMS set")
	}
	if s.BoundViolations != 0 {
		t.Errorf("observed %d episodes beyond Δ_R = %s (max %g)",
			s.BoundViolations, s.ResetBound, s.MaxEpisode)
	}
	if s.Misses != 0 {
		t.Errorf("%d deadline misses on a schedulable configuration", s.Misses)
	}
	if s.TimeAtSpeed <= 0 || s.EnergyPremium <= 0 {
		t.Errorf("energy accounting empty: timeAtSpeed %g, premium %g", s.TimeAtSpeed, s.EnergyPremium)
	}
}

func TestFleetBudgetTrips(t *testing.T) {
	set := preparedFMS(t)
	a := hotACET()
	a.OverrunProb = 0.2
	s, err := Run(Params{
		Set: set, Runs: 400, Seed: 3,
		Speedup: rat.Two, Budget: rat.New(1, 2), Horizon: 4 * set.MaxPeriod(), ACET: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.BudgetTrips == 0 {
		t.Fatal("a half-tick budget never tripped")
	}
	if s.Budget != "1/2" {
		t.Fatalf("budget rendered %q, want 1/2", s.Budget)
	}
	// A tripped episode contributes exactly the budget to time-at-speed,
	// so the total must be at least trips × budget.
	if s.TimeAtSpeed < 0.5*float64(s.BudgetTrips) {
		t.Errorf("timeAtSpeed %g below %d trips × 1/2", s.TimeAtSpeed, s.BudgetTrips)
	}
}

// TestFleetChunkEdges exercises run counts straddling the reducer chunk
// boundaries, including the single-run fleet.
func TestFleetChunkEdges(t *testing.T) {
	set := genSet(t, 2)
	for _, runs := range []int{1, chunkSize - 1, chunkSize, chunkSize + 1} {
		s, err := Run(Params{
			Set: set, Runs: runs, Seed: 5, Speedup: rat.Two,
			Horizon: 2 * set.MaxPeriod(), Workers: 4,
		})
		if err != nil {
			t.Fatalf("runs=%d: %v", runs, err)
		}
		if s.Runs != int64(runs) {
			t.Fatalf("runs=%d: summary reports %d", runs, s.Runs)
		}
		if s.JobsReleased == 0 || s.Completed == 0 {
			t.Fatalf("runs=%d: empty fleet (%d released, %d completed)", runs, s.JobsReleased, s.Completed)
		}
	}
}

func TestFleetParamsRejected(t *testing.T) {
	set := genSet(t, 3)
	bad := []Params{
		{Set: set, Runs: 0, Speedup: rat.Two},
		{Set: set, Runs: 10},
		{Set: set, Runs: 10, Speedup: rat.PosInf},
		{Set: set, Runs: 10, Speedup: rat.Two, ACET: gen.ACET{LOFloor: 2, LOCeil: 3}},
		{Set: task.Set{}, Runs: 10, Speedup: rat.Two},
	}
	for i, p := range bad {
		if _, err := Run(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

// TestFleetHundredK is the acceptance-scale determinism check: ≥ 100k
// sampled runs, byte-identical across worker counts.
func TestFleetHundredK(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-run fleet skipped in -short")
	}
	// Compact periods keep each sampled run to a few dozen jobs, so the
	// 100k-replicate fleet stays in test-suite time even under -race.
	p := gen.Defaults()
	p.PeriodMin, p.PeriodMax = 10, 60
	set := p.MustSet(rand.New(rand.NewSource(4)), 0.6)
	base := Params{
		Set: set, Runs: 100_000, Seed: 20260808,
		Speedup: rat.Two, Horizon: 2 * set.MaxPeriod(),
	}
	p1 := base
	p1.Workers = 7
	s1, err := Run(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := base
	p2.Workers = 2
	s2, err := Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.JSON()
	j2, _ := s2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("100k-run fleet diverged across worker counts:\n%s\nvs\n%s", j1, j2)
	}
	if s1.Runs != 100_000 {
		t.Fatalf("summary reports %d runs", s1.Runs)
	}
}

// TestFleetRejectsGridOverflow: a 2^24-scale speed with a fractional
// budget over the FMS set's default horizon needs a tick grid finer than
// int64 holds; the fleet must return the simulator's error, not panic.
func TestFleetRejectsGridOverflow(t *testing.T) {
	_, err := Run(Params{
		Set: preparedFMS(t), Runs: 4, Seed: 1,
		Speedup: rat.New(16777213, 16777216), Budget: rat.New(7, 3), Workers: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "tick grid") {
		t.Fatalf("error %v, want a tick-grid error", err)
	}
}
