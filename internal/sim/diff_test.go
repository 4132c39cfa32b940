package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcspeedup/internal/core"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Differential property tests: the zero-allocation RunInto engine must
// reproduce the frozen pre-refactor simulator (ref_test.go) field for
// field — Misses, Episodes, Trace, and Jobs included, in identical
// order — on generator task sets under synchronous, sporadic, and bursty
// workloads across the whole Config matrix. The RunInto side reuses one
// Result and one Scratch across every case, so buffer-reset bugs show up
// as cross-case contamination.

// diffSets yields generator sets (terminated and degraded LO reactions
// both appear; MustSet degrades LO tasks by the generator's y).
func diffSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(20260808))
	p := gen.Defaults()
	var sets []task.Set
	for i := 0; i < n; i++ {
		u := 0.4 + 0.5*rnd.Float64()
		s := p.MustSet(rnd, u)
		sets = append(sets, s)
		sets = append(sets, s.TerminateLO())
	}
	return sets
}

// diffConfigs is the policy matrix the equivalence must hold over.
func diffConfigs(s task.Set) []Config {
	budget := rat.FromInt64(int64(s.MaxPeriod()))
	return []Config{
		{Speedup: rat.One},
		{Speedup: rat.Two, CollectJobs: true, CollectTrace: true},
		{Speedup: rat.New(3, 2), Budget: budget, ParkTerminatedCarryOver: true},
		{Speedup: rat.Two, Budget: budget.Div(rat.FromInt64(4)), CollectJobs: true},
		{Speedup: rat.New(5, 4), StopOnMiss: true, CollectTrace: true},
		// Budgets short enough to trip: the post-trip grid, down to a
		// budget of a single HI tick (p = bn = 1).
		{Speedup: rat.New(7, 5), Budget: rat.New(9, 4), ParkTerminatedCarryOver: true, CollectJobs: true, CollectTrace: true},
		{Speedup: rat.One, Budget: rat.New(1, 3), CollectJobs: true},
	}
}

// assertSameResult compares every Result field, treating a nil slice and
// an empty slice as equal (reused buffers are empty, fresh ones nil —
// JSON export renders both identically).
func assertSameResult(t *testing.T, ctx string, want, got *Result) {
	t.Helper()
	sameSlice := func(field string, a, b any, n, m int) {
		t.Helper()
		if n != m {
			t.Fatalf("%s: %s length %d != reference %d", ctx, field, m, n)
		}
		if n > 0 && !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s diverged:\nref: %+v\ngot: %+v", ctx, field, a, b)
		}
	}
	sameSlice("Misses", want.Misses, got.Misses, len(want.Misses), len(got.Misses))
	if got.MissCount != len(got.Misses) {
		t.Fatalf("%s: MissCount %d but %d miss records", ctx, got.MissCount, len(got.Misses))
	}
	sameSlice("Episodes", want.Episodes, got.Episodes, len(want.Episodes), len(got.Episodes))
	sameSlice("Trace", want.Trace, got.Trace, len(want.Trace), len(got.Trace))
	sameSlice("Jobs", want.Jobs, got.Jobs, len(want.Jobs), len(got.Jobs))
	if want.Completed != got.Completed || want.Dropped != got.Dropped || want.Killed != got.Killed {
		t.Fatalf("%s: counters (completed %d, dropped %d, killed %d) != reference (%d, %d, %d)",
			ctx, got.Completed, got.Dropped, got.Killed, want.Completed, want.Dropped, want.Killed)
	}
	if !want.EndTime.Eq(got.EndTime) {
		t.Fatalf("%s: EndTime %v != reference %v", ctx, got.EndTime, want.EndTime)
	}
}

func diffWorkloads(rnd *rand.Rand, s task.Set) map[string]Workload {
	horizon := 4 * s.MaxPeriod()
	return map[string]Workload{
		"sync":     SynchronousPeriodic(s, horizon, func(_, seq int) bool { return seq%3 == 0 }),
		"sporadic": RandomSporadic(rnd, s, horizon, 0.3),
		"bursts":   BurstOverruns(rnd, s, horizon, s.MaxPeriod()/2),
	}
}

func TestRunIntoMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var (
		res Result
		sc  Scratch
	)
	for i, s := range diffSets(t, 12) {
		for name, w := range diffWorkloads(rnd, s) {
			c, err := Compile(s, w)
			if err != nil {
				t.Fatalf("set %d %s: compile: %v", i, name, err)
			}
			for k, cfg := range diffConfigs(s) {
				ctx := fmt.Sprintf("set %d, workload %s, cfg %d", i, name, k)
				want, err := refRun(s, w, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", ctx, err)
				}
				if err := c.RunInto(&res, &sc, cfg); err != nil {
					t.Fatalf("%s: RunInto: %v", ctx, err)
				}
				assertSameResult(t, ctx+" (RunInto)", want, &res)

				got, err := Run(s, w, cfg)
				if err != nil {
					t.Fatalf("%s: Run: %v", ctx, err)
				}
				assertSameResult(t, ctx+" (Run)", want, got)
			}
		}
	}
}

// uncollected is cfg with job and trace collection off, the setting
// under which a LO-schedulable set's runs skip overrun-free busy periods
// (Scratch.skipLO).
func uncollected(cfg Config) Config {
	cfg.CollectJobs, cfg.CollectTrace = false, false
	return cfg
}

// simCase is one (set, workload) input of the RunWorkload differential.
type simCase struct {
	name string
	set  task.Set
	w    Workload
}

// workloadCorpus is the RunWorkload differential's input: generator sets
// (most LO-schedulable, some not), the same sets at their minimal x (the
// fleet's case: virtual deadlines as short as LO-mode schedulability
// allows), and the hand-built edge cases of skipEdgeCases.
func workloadCorpus(t *testing.T) []simCase {
	t.Helper()
	rnd := rand.New(rand.NewSource(2))
	var cases []simCase
	for i, s := range diffSets(t, 8) {
		for r := 0; r < 4; r++ {
			cases = append(cases, simCase{fmt.Sprintf("set %d run %d", i, r), s,
				RandomSporadic(rnd, s, 3*s.MaxPeriod(), 0.25)})
		}
		_, sx, err := core.MinimalX(s)
		if err != nil {
			continue // not LO-schedulable at any x
		}
		for r, p := range []float64{0.05, 0.01} {
			cases = append(cases, simCase{fmt.Sprintf("set %d at minimal x run %d", i, r), sx,
				RandomSporadic(rnd, sx, 6*sx.MaxPeriod(), p)})
		}
	}
	return append(cases, skipEdgeCases()...)
}

// skipEdgeCases are hand-built workloads on a LO-schedulable set that put
// the busy-period shortcut's boundaries under the differential: a release
// exactly at a busy period's finish (H at 28), an overrun that opens a
// busy period (H at 38), a degraded LO arrival in HI mode that only the
// arrival the shortcut admitted can drop (L at 41, 16 < T(HI) after L at
// 25 but 41 ≥ T(HI) after time 0), an overrun as the workload's last
// arrival (H at 65), and an empty workload.
func skipEdgeCases() []simCase {
	s := task.Set{
		task.NewHI("H", 10, 5, 10, 2, 5),
		{Name: "L", Crit: task.LO, Period: [2]task.Time{10, 30}, Deadline: [2]task.Time{10, 30}, WCET: [2]task.Time{3, 3}},
	}
	return []simCase{
		{"edges", s, Workload{
			{Task: 1, At: 25, Demand: 3},
			{Task: 0, At: 28, Demand: 2},
			{Task: 0, At: 38, Demand: 4},
			{Task: 1, At: 41, Demand: 3},
			{Task: 1, At: 55, Demand: 3},
			{Task: 0, At: 65, Demand: 5},
		}},
		{"empty", s, Workload{}},
	}
}

// TestRunWorkloadMatchesReference exercises the validation-skipping
// fleet entry point on workloads that are valid by construction, over
// the whole Config matrix with collection as configured and with it off
// (where LO-schedulable sets skip overrun-free busy periods).
func TestRunWorkloadMatchesReference(t *testing.T) {
	var (
		res Result
		sc  Scratch
	)
	for _, cs := range workloadCorpus(t) {
		c, err := CompileSet(cs.set)
		if err != nil {
			t.Fatalf("%s: compile: %v", cs.name, err)
		}
		for k, cfg := range diffConfigs(cs.set) {
			for _, cfg := range []Config{cfg, uncollected(cfg)} {
				ctx := fmt.Sprintf("%s, cfg %d (jobs %v, trace %v)", cs.name, k, cfg.CollectJobs, cfg.CollectTrace)
				want, err := refRun(cs.set, cs.w, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", ctx, err)
				}
				if err := c.RunWorkload(&res, &sc, cs.w, cfg); err != nil {
					t.Fatalf("%s: RunWorkload: %v", ctx, err)
				}
				assertSameResult(t, ctx, want, &res)
			}
		}
	}
}

// TestRunRejectsLikeReference pins the error paths: invalid speedups,
// invalid workloads, and invalid sets must fail identically.
func TestRunRejectsLikeReference(t *testing.T) {
	s := diffSets(t, 1)[0]
	w := SynchronousPeriodic(s, s.MaxPeriod(), NoOverrun)
	for _, cfg := range []Config{{}, {Speedup: rat.FromInt64(-1)}, {Speedup: rat.PosInf}} {
		_, errRef := refRun(s, w, cfg)
		_, errNew := Run(s, w, cfg)
		if errRef == nil || errNew == nil || errRef.Error() != errNew.Error() {
			t.Fatalf("speedup %v: error mismatch: ref %v, new %v", cfg.Speedup, errRef, errNew)
		}
	}
	bad := Workload{{Task: 0, At: 5, Demand: 1}, {Task: 0, At: 0, Demand: 1}}
	_, errRef := refRun(s, bad, Config{Speedup: rat.One})
	_, errNew := Run(s, bad, Config{Speedup: rat.One})
	if errRef == nil || errNew == nil || errRef.Error() != errNew.Error() {
		t.Fatalf("unsorted workload: error mismatch: ref %v, new %v", errRef, errNew)
	}
}

// fuzzSimSeeds is FuzzSimEquivalence's checked-in corpus. The last three
// inputs have budgets short enough to trip (speed 7/5 with budget 9/4,
// and 3/2 with 5/4), so the differential reaches the post-trip tick grid;
// TestDifferentialCorpusTripsBudget keeps that true.
var fuzzSimSeeds = []struct {
	seed                      int64
	uRaw, speedRaw, budgetRaw uint8
	park, stop                bool
	probRaw                   uint8
}{
	{1, 10, 30, 0, false, false, 3},
	{42, 55, 15, 40, true, false, 0},
	{20260808, 90, 49, 200, false, true, 6},
	{-7, 17, 10, 1, true, true, 9},
	{5, 60, 4, 9, false, false, 5},
	{6, 80, 4, 9, true, false, 9},
	{11, 70, 5, 5, true, false, 7},
}

// fuzzInput decodes one fuzz input into a set, a workload and a policy
// that collects jobs and a trace.
func fuzzInput(seed int64, uRaw, speedRaw, budgetRaw uint8, park, stop bool, probRaw uint8) (task.Set, Workload, Config) {
	rnd := rand.New(rand.NewSource(seed))
	u := 0.35 + 0.55*float64(uRaw%100)/100
	s := gen.Defaults().MustSet(rnd, u)
	if seed%2 == 0 {
		s = s.TerminateLO()
	}
	w := RandomSporadic(rnd, s, 3*s.MaxPeriod(), float64(probRaw%10)/10)
	cfg := Config{
		Speedup:                 rat.New(int64(speedRaw%40)+10, 10), // 1.0 .. 4.9
		ParkTerminatedCarryOver: park,
		StopOnMiss:              stop,
		CollectJobs:             true,
		CollectTrace:            true,
	}
	if budgetRaw > 0 {
		cfg.Budget = rat.New(int64(budgetRaw), 4)
	}
	return s, w, cfg
}

// simEquivalence runs one fuzz input through the reference and RunInto,
// with collection on and off, fails on any divergence, and returns the
// collecting RunInto result (nil when both engines rejected the input).
func simEquivalence(t *testing.T, seed int64, uRaw, speedRaw, budgetRaw uint8, park, stop bool, probRaw uint8) *Result {
	t.Helper()
	s, w, cfg := fuzzInput(seed, uRaw, speedRaw, budgetRaw, park, stop, probRaw)
	c, errC := Compile(s, w)
	if errC != nil {
		t.Fatalf("compile failed on refRun-accepted input: %v", errC)
	}
	var sc Scratch
	var collected *Result
	for _, cfg := range []Config{cfg, uncollected(cfg)} {
		want, errRef := refRun(s, w, cfg)
		res := new(Result)
		errNew := c.RunInto(res, &sc, cfg)
		if (errRef == nil) != (errNew == nil) {
			t.Fatalf("error mismatch: ref %v, new %v\n%s", errRef, errNew, s.Table())
		}
		if errRef != nil {
			return nil
		}
		assertSameResult(t, fmt.Sprintf("fuzz (jobs %v, trace %v)", cfg.CollectJobs, cfg.CollectTrace), want, res)
		if collected == nil {
			collected = res
		}
	}
	return collected
}

// FuzzSimEquivalence drives randomized sets, workloads, and policies
// through both engines; scripts/verify.sh runs a 10s smoke on top of the
// seed corpus (mirroring FuzzWalkEquivalence).
func FuzzSimEquivalence(f *testing.F) {
	for _, c := range fuzzSimSeeds {
		f.Add(c.seed, c.uRaw, c.speedRaw, c.budgetRaw, c.park, c.stop, c.probRaw)
	}
	f.Fuzz(func(t *testing.T, seed int64, uRaw, speedRaw, budgetRaw uint8, park, stop bool, probRaw uint8) {
		simEquivalence(t, seed, uRaw, speedRaw, budgetRaw, park, stop, probRaw)
	})
}

// TestDifferentialCorpusTripsBudget guards the differential corpus
// itself: the fuzz seeds and the RunInto matrix must both contain
// episodes that tripped their budget, or the post-trip grid would go
// untested against the reference.
func TestDifferentialCorpusTripsBudget(t *testing.T) {
	tripped := func(res *Result) int {
		n := 0
		for _, e := range res.Episodes {
			if e.BudgetTripped {
				n++
			}
		}
		return n
	}
	seedTrips := 0
	for _, c := range fuzzSimSeeds {
		if res := simEquivalence(t, c.seed, c.uRaw, c.speedRaw, c.budgetRaw, c.park, c.stop, c.probRaw); res != nil {
			seedTrips += tripped(res)
		}
	}
	if seedTrips == 0 {
		t.Error("no FuzzSimEquivalence seed trips its budget")
	}

	rnd := rand.New(rand.NewSource(1))
	var res Result
	matrixTrips := 0
	for _, s := range diffSets(t, 4) {
		for _, w := range diffWorkloads(rnd, s) {
			c, err := Compile(s, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range diffConfigs(s) {
				if err := c.RunInto(&res, nil, cfg); err != nil {
					t.Fatal(err)
				}
				matrixTrips += tripped(&res)
			}
		}
	}
	if matrixTrips == 0 {
		t.Error("no run of the RunInto differential matrix trips its budget")
	}
	t.Logf("tripped episodes: %d in the fuzz seeds, %d in the matrix", seedTrips, matrixTrips)
}
