package sim

import (
	"testing"

	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

func mustRun(t *testing.T, s task.Set, w Workload, cfg Config) *Result {
	t.Helper()
	res, err := Run(s, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleTaskNoOverrun: one HI task, periodic, never overruns — stays
// in LO mode, all deadlines met, completions at hand-computed instants.
func TestSingleTaskNoOverrun(t *testing.T) {
	s := task.Set{task.NewHI("h", 10, 5, 10, 2, 4)}
	w := SynchronousPeriodic(s, 30, NoOverrun)
	res := mustRun(t, s, w, Config{Speedup: rat.Two, CollectTrace: true})
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %+v", res.Misses)
	}
	if len(res.Episodes) != 0 {
		t.Fatalf("unexpected HI episodes: %+v", res.Episodes)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d, want 3", res.Completed)
	}
	// Jobs run back-to-back from their arrivals: [0,2], [10,12], [20,22].
	if !res.EndTime.Eq(rat.FromInt64(22)) {
		t.Fatalf("end time %v, want 22", res.EndTime)
	}
}

// TestEDFPreemption: a long low-priority job is preempted by a shorter-
// deadline arrival and both meet their deadlines in the EDF order.
func TestEDFPreemption(t *testing.T) {
	s := task.Set{
		task.NewLO("long", 100, 50, 10),
		task.NewLO("short", 100, 5, 2),
	}
	w := Workload{
		{Task: 0, At: 0, Demand: 10},
		{Task: 1, At: 3, Demand: 2},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.One, CollectTrace: true})
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %+v", res.Misses)
	}
	// Expected: long runs [0,3], short preempts [3,5], long resumes [5,12].
	want := []struct {
		taskIdx    int
		start, end int64
	}{{0, 0, 3}, {1, 3, 5}, {0, 5, 12}}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace: %+v", res.Trace)
	}
	for i, seg := range res.Trace {
		if seg.Task != want[i].taskIdx ||
			!seg.Start.Eq(rat.FromInt64(want[i].start)) ||
			!seg.End.Eq(rat.FromInt64(want[i].end)) {
			t.Fatalf("segment %d = %+v, want %+v", i, seg, want[i])
		}
	}
}

// TestModeSwitchAndSpeedup: hand-computed overrun scenario on Table I.
func TestModeSwitchAndSpeedup(t *testing.T) {
	s := examplesets.TableI() // τ1 HI C=(2,4) D=(6,9) T=10; τ2 LO C=2 D=T=10
	w := Workload{
		{Task: 0, At: 0, Demand: 4}, // overruns
		{Task: 1, At: 0, Demand: 2},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.Two, CollectTrace: true})
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %+v", res.Misses)
	}
	// τ1 (deadline 6) runs first; overrun detected at t = 2 (C(LO) done,
	// demand left). Switch to HI at 2, speed 2: τ1's remaining 2 units
	// take 1 wall unit → done at 3; τ2's 2 units take 1 → done at 4.
	// Idle at 4 → reset; episode [2, 4].
	if len(res.Episodes) != 1 {
		t.Fatalf("episodes: %+v", res.Episodes)
	}
	ep := res.Episodes[0]
	if !ep.Start.Eq(rat.Two) || !ep.End.Eq(rat.FromInt64(4)) || !ep.Ended {
		t.Fatalf("episode = %+v, want [2,4]", ep)
	}
	if !res.EndTime.Eq(rat.FromInt64(4)) {
		t.Fatalf("end time %v, want 4", res.EndTime)
	}
}

// TestFractionalSpeedCompletionExact: at speed 4/3 completions land on
// exact rational instants.
func TestFractionalSpeedCompletionExact(t *testing.T) {
	s := examplesets.TableI()
	w := Workload{{Task: 0, At: 0, Demand: 4}}
	res := mustRun(t, s, w, Config{Speedup: rat.New(4, 3), CollectTrace: true})
	// Switch at 2; remaining 2 at speed 4/3 → 3/2 wall → ends 7/2.
	if len(res.Episodes) != 1 || !res.Episodes[0].End.Eq(rat.New(7, 2)) {
		t.Fatalf("episodes: %+v, want end 7/2", res.Episodes)
	}
}

// TestDeadlineMissDetected: an overloaded scenario must record a miss at
// the exact deadline instant.
func TestDeadlineMissDetected(t *testing.T) {
	s := task.Set{task.NewLO("l", 20, 5, 5)}
	w := Workload{{Task: 0, At: 0, Demand: 5}, {Task: 0, At: 20, Demand: 5}}
	// Slow processor cannot happen in LO mode (speed 1); instead overload
	// with two tight tasks.
	s2 := task.Set{
		task.NewLO("a", 20, 5, 4),
		task.NewLO("b", 20, 5, 4),
	}
	w2 := Workload{{Task: 0, At: 0, Demand: 4}, {Task: 1, At: 0, Demand: 4}}
	res := mustRun(t, s2, w2, Config{Speedup: rat.One})
	if len(res.Misses) != 1 {
		t.Fatalf("misses: %+v, want exactly 1", res.Misses)
	}
	m := res.Misses[0]
	if !m.DetectedAt.Eq(rat.FromInt64(5)) || !m.Deadline.Eq(rat.FromInt64(5)) {
		t.Fatalf("miss = %+v, want detection at deadline 5", m)
	}

	// Control: the first scenario is fine.
	res = mustRun(t, s, w, Config{Speedup: rat.One})
	if len(res.Misses) != 0 {
		t.Fatalf("control scenario missed: %+v", res.Misses)
	}
}

// TestStopOnMiss aborts at the first miss.
func TestStopOnMiss(t *testing.T) {
	s := task.Set{
		task.NewLO("a", 20, 5, 4),
		task.NewLO("b", 20, 5, 4),
	}
	w := SynchronousPeriodic(s, 60, NoOverrun)
	res := mustRun(t, s, w, Config{Speedup: rat.One, StopOnMiss: true})
	if len(res.Misses) != 1 {
		t.Fatalf("StopOnMiss collected %d misses", len(res.Misses))
	}
}

// TestTerminationKillsCarryOver: terminated LO tasks' pending jobs are
// killed at the switch and later arrivals are dropped until reset.
func TestTerminationKillsCarryOver(t *testing.T) {
	s := task.Set{
		task.NewHI("h", 10, 5, 10, 2, 8),
		task.NewLO("l", 3, 3, 2),
	}.TerminateLO()
	// Schedule: l@0 (deadline 3) runs [0,2]; h@0 (virtual deadline 5)
	// runs [2,4] and exhausts C(LO)=2 at t=4 with demand 8 → switch at 4.
	// l@3 (arrived at 3, pending) is killed at the switch. h's remaining
	// 6 units at speed 2 take 3 wall units → idle and reset at 7. l@6
	// arrives inside the episode → dropped. h@20 and l@21 run normally.
	w := Workload{
		{Task: 1, At: 0, Demand: 2},
		{Task: 0, At: 0, Demand: 8}, // overruns
		{Task: 1, At: 3, Demand: 2},
		{Task: 1, At: 6, Demand: 2},
		{Task: 0, At: 20, Demand: 2},
		{Task: 1, At: 21, Demand: 2},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.Two})
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %+v", res.Misses)
	}
	if res.Killed != 1 {
		t.Errorf("killed = %d, want 1", res.Killed)
	}
	if res.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", res.Dropped)
	}
	if res.Completed != 4 {
		t.Errorf("completed = %d, want 4", res.Completed)
	}
	if len(res.Episodes) != 1 || !res.Episodes[0].Start.Eq(rat.FromInt64(4)) ||
		!res.Episodes[0].End.Eq(rat.FromInt64(7)) {
		t.Fatalf("episodes: %+v, want [4,7]", res.Episodes)
	}
}

// TestParkTerminatedCarryOver: with parking, the carry-over job drains at
// lowest priority and delays the reset instead of being killed.
func TestParkTerminatedCarryOver(t *testing.T) {
	s := task.Set{
		task.NewHI("h", 10, 5, 10, 2, 4),
		task.NewLO("l", 10, 10, 3),
	}.TerminateLO()
	w := Workload{
		{Task: 1, At: 0, Demand: 3},
		{Task: 0, At: 0, Demand: 4},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.Two, ParkTerminatedCarryOver: true})
	if res.Killed != 0 {
		t.Errorf("killed = %d, want 0", res.Killed)
	}
	if res.Completed != 2 {
		t.Errorf("completed = %d, want 2", res.Completed)
	}
	// Switch at 2; h remaining 2 → done 3; parked l's 3 units at speed 2
	// → idle at 4.5.
	if len(res.Episodes) != 1 || !res.Episodes[0].End.Eq(rat.New(9, 2)) {
		t.Fatalf("episodes: %+v, want end 9/2", res.Episodes)
	}
}

// TestDegradedAdmission: in HI mode a degraded LO task only gets jobs
// spaced T(HI) apart; early releases are dropped.
func TestDegradedAdmission(t *testing.T) {
	s := examplesets.TableIDegraded() // τ2: T(LO)=10, T(HI)=20, D(HI)=15
	// τ2@0 runs [0,2]. τ1@8 runs [8,10], exhausts C(LO) at 10 → switch
	// exactly when τ2's second job arrives: 10 − 0 < T(HI) = 20 →
	// dropped. τ1 finishes at 11, reset. τ2@20 arrives back in LO mode
	// (and 20 − 0 = T(HI) anyway) → admitted.
	w := Workload{
		{Task: 1, At: 0, Demand: 2},
		{Task: 0, At: 8, Demand: 4}, // overruns → switch at 10
		{Task: 1, At: 10, Demand: 2},
		{Task: 1, At: 20, Demand: 2},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.Two})
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %+v", res.Misses)
	}
	if res.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", res.Dropped)
	}
	if res.Completed != 3 {
		t.Errorf("completed = %d, want 3", res.Completed)
	}
	if len(res.Episodes) != 1 || !res.Episodes[0].Start.Eq(rat.FromInt64(10)) ||
		!res.Episodes[0].End.Eq(rat.FromInt64(11)) {
		t.Fatalf("episodes: %+v, want [10,11]", res.Episodes)
	}
}

// TestBudgetFallback: an episode longer than the budget terminates LO
// work and restores unit speed.
func TestBudgetFallback(t *testing.T) {
	s := task.Set{
		task.NewHI("h", 10, 5, 10, 2, 4),
		task.NewLO("l", 10, 10, 6),
	}
	// Keep the processor saturated so the episode would run long: the LO
	// task has C = 6 and re-arrives every 10.
	w := Workload{
		{Task: 0, At: 0, Demand: 4},
		{Task: 1, At: 0, Demand: 6},
		{Task: 1, At: 10, Demand: 6},
		{Task: 0, At: 10, Demand: 2},
		{Task: 1, At: 20, Demand: 6},
		{Task: 0, At: 20, Demand: 2},
	}
	res := mustRun(t, s, w, Config{Speedup: rat.One, Budget: rat.FromInt64(4)})
	if len(res.Episodes) == 0 {
		t.Fatal("no episode recorded")
	}
	if !res.Episodes[0].BudgetTripped {
		t.Fatalf("budget did not trip: %+v", res.Episodes)
	}
	if res.Killed == 0 && res.Dropped == 0 {
		t.Error("budget fallback terminated nothing")
	}
	if len(res.Misses) != 0 {
		t.Fatalf("HI task missed: %+v", res.Misses)
	}
}

// TestWorkloadValidation rejects malformed workloads.
func TestWorkloadValidation(t *testing.T) {
	s := examplesets.TableI()
	cases := []Workload{
		{{Task: 5, At: 0, Demand: 1}},                               // bad index
		{{Task: 0, At: -1, Demand: 1}},                              // negative time
		{{Task: 0, At: 10, Demand: 1}, {Task: 0, At: 0, Demand: 1}}, // unsorted
		{{Task: 0, At: 0, Demand: 9}},                               // > C(HI)
		{{Task: 1, At: 0, Demand: 3}},                               // LO task > C(LO)
		{{Task: 0, At: 0, Demand: 0}},                               // zero demand
		{{Task: 0, At: 0, Demand: 2}, {Task: 0, At: 5, Demand: 2}},  // < T(LO)
	}
	for i, w := range cases {
		if err := w.Validate(s); err == nil {
			t.Errorf("case %d: workload accepted", i)
		}
	}
	if _, err := Run(s, Workload{{Task: 0, At: 0, Demand: 1}}, Config{Speedup: rat.Zero}); err == nil {
		t.Error("zero speedup accepted")
	}
}

// TestWorkloadBuilders sanity-checks the generators.
func TestWorkloadBuilders(t *testing.T) {
	s := examplesets.TableI()
	w := SynchronousPeriodic(s, 50, AlwaysOverrun)
	if err := w.Validate(s); err != nil {
		t.Fatal(err)
	}
	// 5 jobs per task on [0,50).
	if len(w) != 10 {
		t.Fatalf("len = %d, want 10", len(w))
	}
	overruns := 0
	for _, a := range w {
		if s[a.Task].Crit == task.HI && a.Demand > s[a.Task].WCET[task.LO] {
			overruns++
		}
	}
	if overruns != 5 {
		t.Fatalf("overruns = %d, want 5", overruns)
	}
}

func TestGanttRendering(t *testing.T) {
	s := examplesets.TableI()
	w := Workload{{Task: 0, At: 0, Demand: 4}, {Task: 1, At: 0, Demand: 2}}
	res := mustRun(t, s, w, Config{Speedup: rat.Two, CollectTrace: true})
	g := Gantt(s, res, 40)
	for _, want := range []string{"tau1", "tau2", "#", "^", "episodes:"} {
		if !contains(g, want) {
			t.Errorf("Gantt missing %q:\n%s", want, g)
		}
	}
	empty := Gantt(s, &Result{}, 40)
	if !contains(empty, "empty") {
		t.Errorf("empty trace rendering: %q", empty)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestMaxEpisodeAccessor(t *testing.T) {
	r := &Result{Episodes: []Episode{
		{Start: rat.FromInt64(0), End: rat.FromInt64(3), Ended: true},
		{Start: rat.FromInt64(10), End: rat.FromInt64(17), Ended: true},
	}}
	if !r.MaxEpisode().Eq(rat.FromInt64(7)) {
		t.Errorf("MaxEpisode = %v, want 7", r.MaxEpisode())
	}
	if !(&Result{}).MaxEpisode().IsZero() {
		t.Error("empty MaxEpisode must be zero")
	}
}

// TestCountMissesOnly: the count-only mode keeps no Miss records but
// counts exactly the misses a recording run records, and changes nothing
// else about the run.
func TestCountMissesOnly(t *testing.T) {
	s := task.Set{
		task.NewLO("a", 2, 2, 1),
		task.NewHI("b", 3, 2, 3, 1, 2),
		task.NewLO("c", 4, 4, 1),
	}
	w := SynchronousPeriodic(s, 200, func(_, seq int) bool { return seq%3 == 0 })
	for _, stop := range []bool{false, true} {
		cfg := Config{Speedup: rat.One, StopOnMiss: stop}
		want := mustRun(t, s, w, cfg)
		cfg.CountMissesOnly = true
		got := mustRun(t, s, w, cfg)
		if len(want.Misses) == 0 || want.MissCount != len(want.Misses) {
			t.Fatalf("stop=%v: recording run has %d misses, MissCount %d", stop, len(want.Misses), want.MissCount)
		}
		if len(got.Misses) != 0 || got.MissCount != want.MissCount {
			t.Fatalf("stop=%v: count-only run kept %d records, counted %d, want 0 and %d",
				stop, len(got.Misses), got.MissCount, want.MissCount)
		}
		got.Misses = want.Misses
		assertSameResult(t, "count-only", want, got)
	}
}
