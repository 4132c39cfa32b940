package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TestExample1 reproduces the paper's Example 1: the Table-I set requires
// s_min = 4/3 in HI mode; degrading τ₂'s service to D(HI)=15, T(HI)=20
// drops the required factor below 1.
func TestExample1(t *testing.T) {
	res, err := MinSpeedup(examplesets.TableI())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("Table I walk inexact")
	}
	if want := rat.New(4, 3); !res.Speedup.Eq(want) {
		t.Fatalf("s_min = %v, want %v", res.Speedup, want)
	}
	if res.WitnessDelta <= 0 {
		t.Errorf("no witness interval (got %d)", res.WitnessDelta)
	}
	// The witness really attains the supremum.
	v := dbf.SetHIMode(examplesets.TableI(), res.WitnessDelta)
	if !rat.New(int64(v), int64(res.WitnessDelta)).Eq(res.Speedup) {
		t.Errorf("witness Δ=%d has ratio %d/%d != s_min", res.WitnessDelta, v, res.WitnessDelta)
	}

	deg, err := MinSpeedup(examplesets.TableIDegraded())
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Exact {
		t.Fatal("degraded walk inexact")
	}
	if deg.Speedup.Cmp(rat.One) >= 0 {
		t.Fatalf("degraded s_min = %v, want < 1 (the system can slow down)", deg.Speedup)
	}
	if want := rat.New(6, 7); !deg.Speedup.Eq(want) {
		t.Fatalf("degraded s_min = %v, want %v", deg.Speedup, want)
	}
}

// TestMinSpeedupIsSufficientAndTight verifies the defining property of
// Theorem 2 on the running example: demand never exceeds s_min·Δ, and for
// any smaller s there is a violating interval.
func TestMinSpeedupIsSufficientAndTight(t *testing.T) {
	for _, s := range []task.Set{examplesets.TableI(), examplesets.TableIDegraded()} {
		res, err := MinSpeedup(s)
		if err != nil {
			t.Fatal(err)
		}
		for d := task.Time(1); d <= 200; d++ {
			demand := rat.FromInt64(int64(dbf.SetHIMode(s, d)))
			if demand.Cmp(res.Speedup.MulInt(int64(d))) > 0 {
				t.Fatalf("DBF_HI(%d) = %v exceeds s_min·Δ", d, demand)
			}
		}
		smaller := res.Speedup.Mul(rat.New(999, 1000))
		v := dbf.SetHIMode(s, res.WitnessDelta)
		if rat.FromInt64(int64(v)).Cmp(smaller.MulInt(int64(res.WitnessDelta))) <= 0 {
			t.Fatalf("s < s_min still feasible at witness Δ=%d", res.WitnessDelta)
		}
	}
}

func TestMinSpeedupTerminatedOnly(t *testing.T) {
	s := task.Set{task.NewLO("l", 10, 10, 3)}.TerminateLO()
	res, err := MinSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || !res.Speedup.IsZero() {
		t.Errorf("terminated-only set: %+v, want exact 0", res)
	}
}

func TestMinSpeedupRejectsInvalid(t *testing.T) {
	if _, err := MinSpeedup(task.Set{}); err == nil {
		t.Error("empty set accepted")
	}
	bad := task.Set{task.NewHI("h", 10, 5, 10, 2, 20)} // C(HI) > D(HI)
	if _, err := MinSpeedup(bad); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestSchedulableHI(t *testing.T) {
	s := examplesets.TableI()
	ok, err := SchedulableHI(s, rat.New(4, 3))
	if err != nil || !ok {
		t.Errorf("SchedulableHI(4/3) = %v, %v; want true", ok, err)
	}
	ok, err = SchedulableHI(s, rat.New(13, 10))
	if err != nil || ok {
		t.Errorf("SchedulableHI(1.3) = %v, %v; want false", ok, err)
	}
	ok, err = SchedulableHI(s, rat.Two)
	if err != nil || !ok {
		t.Errorf("SchedulableHI(2) = %v, %v; want true", ok, err)
	}
}

// randomSet builds a small random valid dual-criticality set. Degradation
// of LO tasks and HI/LO mix are randomized.
func randomSet(rnd *rand.Rand, n int, maxPeriod int64) task.Set {
	s := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := task.Time(rnd.Int63n(maxPeriod-2) + 3)
		cLO := task.Time(rnd.Int63n(int64(period)/3+1) + 1)
		name := string(rune('a' + i))
		if rnd.Intn(2) == 0 {
			cHI := cLO + task.Time(rnd.Int63n(int64(period-cLO)/2+1))
			dHI := cHI + task.Time(rnd.Int63n(int64(period-cHI)+1))
			if dHI <= cLO {
				dHI = cLO + 1
			}
			dLO := cLO + task.Time(rnd.Int63n(int64(dHI-cLO)))
			if dLO >= dHI {
				dLO = dHI - 1
			}
			s = append(s, task.NewHI(name, period, dLO, dHI, cLO, cHI))
		} else {
			dLO := cLO + task.Time(rnd.Int63n(int64(period-cLO)+1))
			tk := task.NewLO(name, period, dLO, cLO)
			switch rnd.Intn(3) {
			case 0: // degrade
				tk.Period[task.HI] = period + task.Time(rnd.Int63n(int64(period)))
				tk.Deadline[task.HI] = dLO + task.Time(rnd.Int63n(int64(tk.Period[task.HI]-dLO)+1))
			case 1: // terminate
				tk.Period[task.HI] = task.Unbounded
				tk.Deadline[task.HI] = task.Unbounded
			}
			s = append(s, tk)
		}
	}
	return s
}

// bruteMinSpeedup recomputes s_min by brute force: by the periodicity
// DBF_HI(Δ+T) = DBF_HI(Δ)+C(HI), the supremum is max(U_HI,
// max_{Δ ∈ (0, lcm]} ΣDBF_HI(Δ)/Δ), and on integer-parameter sets every
// linear-segment endpoint is an integer, so scanning all integers in
// (0, lcm] is exhaustive.
func bruteMinSpeedup(s task.Set) rat.Rat {
	l := task.Time(1)
	any := false
	for i := range s {
		if s[i].Terminated() {
			continue
		}
		any = true
		p := s[i].Period[task.HI]
		l = l / gcdTime(l, p) * p
	}
	if !any {
		return rat.Zero
	}
	best := s.Util(task.HI)
	for d := task.Time(1); d <= l; d++ {
		if v := dbf.SetHIMode(s, d); best.CmpRatio(int64(v), int64(d)) < 0 {
			best = rat.New(int64(v), int64(d))
		}
	}
	return best
}

func TestMinSpeedupAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 12)
		if err := s.Validate(); err != nil {
			t.Fatalf("generator bug: %v", err)
		}
		res, err := MinSpeedup(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("small set walk inexact: %v", s.Table())
		}
		want := bruteMinSpeedup(s)
		if !res.Speedup.Eq(want) {
			t.Fatalf("set:\n%s\nMinSpeedup = %v, brute force = %v", s.Table(), res.Speedup, want)
		}
	}
}

// TestSeedBoundBelowSupremum: the walk's seed is a proven lower bound on
// the Theorem-2 supremum, and every probe it keeps lies strictly inside
// the hyperperiod H, so the seed never exceeds the largest ratio over
// Δ ∈ [1, H−1] either. The corpus mixes random small sets (terminated
// and degraded LO rows included) with rows whose ramp is clipped at the
// period (D(HI) − D(LO) + C(LO) = T) and one-task sets, whose clipped
// ramp ends exactly at H — the probe seedBound must discard, since the
// ratio there is U_HI, above every ratio in [1, H−1].
func TestSeedBoundBelowSupremum(t *testing.T) {
	rnd := rand.New(rand.NewSource(34))
	var sets []task.Set
	for range 400 {
		sets = append(sets, randomSet(rnd, 1+rnd.Intn(4), 12))
	}
	for range 200 {
		// A ramp clipped at the period: off + C(LO) = D(HI) − D(LO) +
		// C(LO) reaches T exactly when D(LO) = C(LO) and D(HI) = T (it
		// cannot pass T with constrained deadlines).
		period := task.Time(3 + rnd.Intn(10))
		cLO := task.Time(1 + rnd.Intn(int(period)/2))
		cHI := cLO + task.Time(rnd.Intn(int(period-cLO)+1))
		s := task.Set{task.NewHI("c", period, cLO, period, cLO, cHI)}
		if rnd.Intn(2) == 0 {
			s = append(s, randomSet(rnd, 1+rnd.Intn(3), 12)...)
			for i := range s {
				s[i].Name = string(rune('a' + i))
			}
		}
		sets = append(sets, s)
	}
	clipped, atHyper, terminated := 0, 0, 0
	for i, s := range sets {
		if err := s.Validate(); err != nil {
			t.Fatalf("set %d: generator bug: %v", i, err)
		}
		plan := dbf.CompilePlan(s, dbf.KindDBF)
		hyper, ok := dbf.HIHyperperiod(s)
		if !ok {
			t.Fatalf("set %d: no hyperperiod", i)
		}
		for r := 0; r < plan.Len(); r++ {
			at, _, active := plan.RampEnd(r)
			switch {
			case !active:
				terminated++
			case at == s[r].Period[task.HI]:
				clipped++
				if at == hyper {
					atHyper++
				}
			}
		}
		inside := rat.Zero
		for d := task.Time(1); d < hyper; d++ {
			if v := dbf.SetHIMode(s, d); inside.CmpRatio(int64(v), int64(d)) < 0 {
				inside = rat.New(int64(v), int64(d))
			}
		}
		sup := bruteMinSpeedup(s)
		for _, warm := range []task.Time{0, 1 + task.Time(rnd.Int63n(int64(2*hyper)))} {
			seed := seedBound(plan, warm, hyper, true)
			if seed.Cmp(sup) > 0 {
				t.Fatalf("set %d, warm %d: seed %v above the supremum %v\n%s", i, warm, seed, sup, s.Table())
			}
			if seed.Cmp(inside) > 0 {
				t.Fatalf("set %d, warm %d: seed %v above every ratio in [1, %d): %v\n%s", i, warm, seed, hyper, inside, s.Table())
			}
		}
	}
	if clipped == 0 || atHyper == 0 || terminated == 0 {
		t.Fatalf("degenerate corpus: %d clipped ramps, %d at the hyperperiod, %d terminated rows", clipped, atHyper, terminated)
	}
}

func TestMinSpeedupInexactFallbackIsSafe(t *testing.T) {
	// Force the inexact path with a tiny event budget; the reported
	// Speedup must still dominate the true supremum. It is pinned too:
	// after the events Δ = 2, 3, 5 (ratios 1, 4/3, 6/5) the walk reports
	// the envelope U_HI + B/5 = 3/5 + 4/5 with the tight intercept
	// B = ⌈4·5/10⌉ + ⌈2·8/10⌉ = 4 (ramp ends 5 and 2), where the loose
	// ΣC(HI) = 6 gave 9/5.
	s := examplesets.TableI()
	res, err := MinSpeedupOpts(s, Options{MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("expected inexact result with MaxEvents=3")
	}
	if !res.Speedup.Eq(rat.New(7, 5)) || !res.LowerBound.Eq(rat.New(4, 3)) {
		t.Errorf("capped walk %+v, want Speedup 7/5 and LowerBound 4/3", res)
	}
	exact, err := MinSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup.Cmp(exact.Speedup) < 0 {
		t.Errorf("inexact Speedup %v below exact %v", res.Speedup, exact.Speedup)
	}
	if res.LowerBound.Cmp(exact.Speedup) > 0 {
		t.Errorf("LowerBound %v above exact %v", res.LowerBound, exact.Speedup)
	}
}

// TestMinSpeedupHyperperiodStop exercises stopping rule 2: a set whose
// demand ratio never exceeds its HI-mode utilization at any finite point
// except multiples, so the bound-based rule cannot fire.
func TestMinSpeedupHyperperiodStop(t *testing.T) {
	// A single heavily-degraded LO task: gap is huge, carry ramp late,
	// ratios stay at or below U for a long prefix.
	tk := task.NewLO("l", 10, 10, 1)
	tk.Period[task.HI] = 100
	tk.Deadline[task.HI] = 100
	s := task.Set{tk}
	res, err := MinSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("expected exact result, got %+v", res)
	}
	if want := bruteMinSpeedup(s); !res.Speedup.Eq(want) {
		t.Errorf("s_min = %v, want %v", res.Speedup, want)
	}
}

// TestSetStateDLOEditMovesIntercept: a D(LO) edit keeps every cached
// HI-mode aggregate of a SetState, yet moves the ramp ends and so the
// envelope intercept. The next walk over the state must read the new
// intercept, which a capped walk's envelope exposes: on Table I, τ₁'s
// D(LO) 6 → 7 moves its ramp end from 5 to 4 and its term from
// ⌈4·5/10⌉ = 2 to ⌈4·6/10⌉ = 3.
func TestSetStateDLOEditMovesIntercept(t *testing.T) {
	st, err := dbf.NewSetState(examplesets.TableI())
	if err != nil {
		t.Fatal(err)
	}
	capped := Options{MaxEvents: 1} // the first event is Δ = 2 before and after
	before, err := minSpeedupState(st, capped)
	if err != nil {
		t.Fatal(err)
	}
	e := task.Edit{Op: task.OpSet, Name: "tau1", Params: []task.ParamValue{{Param: task.ParamDLO, Value: 7}}}
	if err := st.Apply(e); err != nil {
		t.Fatal(err)
	}
	if b := dbf.CompilePlan(st.Tasks(), dbf.KindDBF).Intercept(); b != 5 {
		t.Fatalf("intercept after the edit %d, want 5", b)
	}
	after, err := minSpeedupState(st, capped)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MinSpeedupOpts(st.Tasks().Clone(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Speedup.Eq(rat.New(13, 5)) || !after.Speedup.Eq(rat.New(31, 10)) || !after.Speedup.Eq(cold.Speedup) {
		t.Errorf("capped envelopes %v → %v (cold %v), want 13/5 = 3/5 + 4/2 → 31/10 = 3/5 + 5/2",
			before.Speedup, after.Speedup, cold.Speedup)
	}
}
