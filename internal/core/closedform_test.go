package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TestTaskSigmaIsPerTaskSupremum: σ_i must dominate the task's demand
// curve everywhere and be attained (it equals the single-task s_min).
func TestTaskSigmaIsPerTaskSupremum(t *testing.T) {
	rnd := rand.New(rand.NewSource(51))
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1, 15)
		sigma := dbf.TaskSigma(&s[0])
		res, err := MinSpeedup(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("singleton walk inexact for %s", s[0].String())
		}
		if !sigma.Eq(res.Speedup) {
			t.Fatalf("%s: σ = %v, exact single-task s_min = %v", s[0].String(), sigma, res.Speedup)
		}
	}
}

func TestTaskSigmaEdgeCases(t *testing.T) {
	// Terminated task: zero.
	s := task.Set{task.NewLO("l", 10, 10, 3)}.TerminateLO()
	if got := dbf.TaskSigma(&s[0]); !got.IsZero() {
		t.Errorf("terminated σ = %v, want 0", got)
	}
	// Undegraded LO task: the carry-over ramp at the origin forces σ = 1.
	l := task.NewLO("l", 10, 10, 3)
	if got := dbf.TaskSigma(&l); !got.Eq(rat.One) {
		t.Errorf("undegraded LO σ = %v, want 1", got)
	}
	// A hypothetical zero-gap HI task forces infinite speedup (the
	// paper's point about unprepared overrun). Build it bypassing
	// validation.
	h := task.Task{
		Name: "h", Crit: task.HI,
		Period:   [2]task.Time{10, 10},
		Deadline: [2]task.Time{10, 10},
		WCET:     [2]task.Time{2, 4},
	}
	if got := dbf.TaskSigma(&h); !got.Eq(rat.PosInf) {
		t.Errorf("zero-gap HI σ = %v, want +Inf", got)
	}
}

// TestClosedFormSpeedupSound: Lemma 6 is an upper bound on Theorem 2,
// checked against both the exact walk and the brute-force supremum of
// eq. (8), an oracle that shares no code with the walk (periods below 30
// keep the scanned hyperperiods small).
func TestClosedFormSpeedupSound(t *testing.T) {
	rnd := rand.New(rand.NewSource(52))
	tightCount := 0
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 15)
		bound := ClosedFormSpeedup(s)
		res, err := MinSpeedup(s)
		if err != nil {
			t.Fatal(err)
		}
		if bound.Cmp(res.Speedup) < 0 {
			t.Fatalf("closed form %v below exact %v for:\n%s", bound, res.Speedup, s.Table())
		}
		if bound.Eq(res.Speedup) {
			tightCount++
		}
		if want := bruteMinSpeedup(s); bound.Cmp(want) < 0 {
			t.Fatalf("closed form %v below brute-force s_min %v for:\n%s", bound, want, s.Table())
		}
	}
	if tightCount == 0 {
		t.Error("closed form never tight — suspicious")
	}
}

// TestClosedFormResetSound: Lemma 7 dominates the exact Corollary-5 value
// whenever it is finite, both the walk's and the brute-force scan's of
// eq. (12). A finite Lemma-7 bound needs speed above the Lemma-6 bound,
// hence above U_HI, so the scan always ends.
func TestClosedFormResetSound(t *testing.T) {
	rnd := rand.New(rand.NewSource(53))
	finite := 0
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 15)
		speed := rat.New(rnd.Int63n(40)+10, 10) // 1.0 .. 4.9
		bound := ClosedFormReset(s, speed)
		exact, err := ResetTime(s, speed)
		if err != nil {
			t.Fatal(err)
		}
		if bound.IsInf() {
			continue
		}
		finite++
		if bound.Cmp(exact.Reset) < 0 {
			t.Fatalf("closed-form Δ_R %v below exact %v (speed %v) for:\n%s",
				bound, exact.Reset, speed, s.Table())
		}
		if want := bruteResetTime(s, speed); bound.Cmp(want) < 0 {
			t.Fatalf("closed-form Δ_R %v below brute-force %v (speed %v) for:\n%s",
				bound, want, speed, s.Table())
		}
	}
	if finite == 0 {
		t.Error("closed-form reset never finite — suspicious")
	}
}

// TestClosedFormMonotoneInXY reproduces the qualitative content of
// Fig. 4a on the Table-I set transformed per eqs. (13)–(14): the bound
// decreases as x decreases and as y increases.
func TestClosedFormMonotoneInXY(t *testing.T) {
	base := task.Set{
		task.NewImplicitHI("t1", 40, 8, 16),
		task.NewImplicitLO("t2", 40, 8),
	}
	apply := func(xNum, yNum int64) rat.Rat {
		s, err := base.ShortenHIDeadlines(rat.New(xNum, 8))
		if err != nil {
			t.Fatal(err)
		}
		s, err = s.DegradeLO(rat.New(yNum, 2))
		if err != nil {
			t.Fatal(err)
		}
		return ClosedFormSpeedup(s)
	}
	// x sweep at fixed y = 2: larger x (less preparation) needs more speed.
	prev := rat.Zero
	for xNum := int64(1); xNum <= 7; xNum++ {
		b := apply(xNum, 4)
		if b.Cmp(prev) < 0 {
			t.Errorf("bound not nondecreasing in x at x=%d/8", xNum)
		}
		prev = b
	}
	// y sweep at fixed x = 1/2: more degradation needs less speed.
	prevY := rat.PosInf
	for yNum := int64(2); yNum <= 8; yNum++ {
		b := apply(4, yNum)
		if b.Cmp(prevY) > 0 {
			t.Errorf("bound not nonincreasing in y at y=%d/2", yNum)
		}
		prevY = b
	}
}

// TestLemma7OnTableI pins the closed-form numbers for the running example
// so regressions are caught.
func TestLemma7OnTableI(t *testing.T) {
	s := examplesets.TableI()
	smin := ClosedFormSpeedup(s)
	exact, err := MinSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if smin.Cmp(exact.Speedup) < 0 {
		t.Fatalf("closed form %v below exact 4/3", smin)
	}
	// σ(τ1) = max{4/10, 2/3, 4/5} = 4/5; σ(τ2) = 1 → bound 9/5.
	if want := rat.New(9, 5); !smin.Eq(want) {
		t.Errorf("closed-form s_min = %v, want %v", smin, want)
	}
	// Lemma 7 at s = 2: ΣC(HI) = 6, s − s_min = 1/5 → 30.
	if got, want := ClosedFormReset(s, rat.Two), rat.FromInt64(30); !got.Eq(want) {
		t.Errorf("closed-form Δ_R = %v, want %v", got, want)
	}
	if !ClosedFormReset(s, rat.New(9, 5)).IsInf() {
		t.Error("closed-form Δ_R at s = s_min must be +Inf (paper's remark)")
	}
}

// TestADBDominatedByDBFPlusC validates the inequality the Lemma-7
// soundness argument rests on: ADB(Δ) ≤ DBF_HI(Δ) + C(HI) pointwise.
func TestADBDominatedByDBFPlusC(t *testing.T) {
	rnd := rand.New(rand.NewSource(54))
	for i := 0; i < 200; i++ {
		s := randomSet(rnd, 1, 15)
		tk := &s[0]
		horizon := task.Time(60)
		if !tk.Terminated() {
			horizon = 4 * tk.Period[task.HI]
		}
		for d := task.Time(0); d <= horizon; d++ {
			if dbf.ADB(tk, d) > dbf.HIMode(tk, d)+tk.WCET[task.HI] {
				t.Fatalf("%s: ADB(%d) > DBF(%d) + C(HI)", tk.String(), d, d)
			}
		}
	}
}
