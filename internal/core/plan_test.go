package core

// Differential tests for the compiled columnar demand plans: the
// production walks evaluate every task through the plan's flat int64
// columns, and the reference walks of ref_test.go evaluate the task
// structs through the scalar dbf closed forms, so every analysis must
// produce the reference payload on every exact result while never
// examining more events. These run over randomSet's small sets, rich in
// terminated and degraded LO tasks (the plan's special rows); the
// generator-set counterparts are in prune_test.go.

import (
	"math/rand"
	"reflect"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// planSets returns small random sets for the plan differentials.
func planSets(n int) []task.Set {
	rnd := rand.New(rand.NewSource(20260808))
	var sets []task.Set
	for len(sets) < n {
		if s := randomSet(rnd, 1+rnd.Intn(6), 60); s.Validate() == nil {
			sets = append(sets, s)
		}
	}
	return sets
}

func TestMinSpeedupPlanScalarIdentical(t *testing.T) {
	for i, s := range planSets(150) {
		planned, errP := MinSpeedup(s)
		scalar, errS := referenceMinSpeedup(s, Options{})
		if (errP == nil) != (errS == nil) {
			t.Fatalf("set %d: error mismatch: %v vs %v", i, errP, errS)
		}
		if errP != nil {
			continue
		}
		if (scalar.Exact && !sameSpeedupPayload(planned, scalar)) || planned.Events > scalar.Events {
			t.Fatalf("set %d: planned %+v != scalar %+v:\n%s", i, planned, scalar, s.Table())
		}
	}
}

func TestResetTimePlanScalarIdentical(t *testing.T) {
	speeds := []rat.Rat{rat.New(9, 10), rat.One, rat.New(3, 2), rat.Two, rat.FromInt64(3)}
	for i, s := range planSets(100) {
		for _, sp := range speeds {
			planned, errP := ResetTime(s, sp)
			scalar, errS := referenceResetTime(s, sp)
			if (errP == nil) != (errS == nil) {
				t.Fatalf("set %d speed %v: error mismatch: %v vs %v", i, sp, errP, errS)
			}
			if errP != nil {
				continue
			}
			if !planned.Reset.Eq(scalar.Reset) || planned.Events > scalar.Events {
				t.Fatalf("set %d speed %v: planned %+v != scalar %+v:\n%s",
					i, sp, planned, scalar, s.Table())
			}
		}
	}
}

func TestMinSpeedForResetPlanScalarIdentical(t *testing.T) {
	budgets := []task.Time{1, 100, 5_000, 50_000}
	for i, s := range planSets(100) {
		for _, b := range budgets {
			planned, errP := MinSpeedForReset(s, b)
			scalar, errS := referenceMinSpeedForReset(s, b, Options{})
			if (errP == nil) != (errS == nil) {
				t.Fatalf("set %d budget %d: error mismatch: %v vs %v", i, b, errP, errS)
			}
			if errP != nil {
				continue
			}
			if !sameSpeedForResetPayload(planned, scalar) || planned.Events > scalar.Events {
				t.Fatalf("set %d budget %d: planned %+v != scalar %+v:\n%s",
					i, b, planned, scalar, s.Table())
			}
		}
	}
}

// TestDesignSearchesPlanScalarIdentical runs the three design searches —
// MinimalY, TuneDeadlines, FeasibleXWindow — against their materialized
// references (ref_test.go), which build every candidate set and decide
// it with a full MinSpeedup. Their bisections and greedy moves branch on
// exact rationals, so every intermediate cap probe agreeing must compose
// into identical final configurations.
func TestDesignSearchesPlanScalarIdentical(t *testing.T) {
	for i, s := range prunedSets(t, 12) {
		yP, setP, errP := MinimalY(s, rat.Two)
		yS, setS, errS := referenceMinimalY(s, rat.Two)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("set %d: MinimalY error mismatch: %v vs %v", i, errP, errS)
		}
		if errP == nil && (!yP.Eq(yS) || !reflect.DeepEqual(setP, setS)) {
			t.Fatalf("set %d: MinimalY (%v, %v) != reference (%v, %v)", i, yP, setP, yS, setS)
		}

		xLoP, xHiP, errP := FeasibleXWindow(s, rat.Two)
		xLoS, xHiS, errS := referenceFeasibleXWindow(s, rat.Two)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("set %d: FeasibleXWindow error mismatch: %v vs %v", i, errP, errS)
		}
		if errP == nil && (!xLoP.Eq(xLoS) || !xHiP.Eq(xHiS)) {
			t.Fatalf("set %d: FeasibleXWindow [%v,%v] != reference [%v,%v]", i, xLoP, xHiP, xLoS, xHiS)
		}

		trP, errP := TuneDeadlines(s, rat.New(1, 8))
		trS, errS := referenceTuneDeadlines(s, rat.New(1, 8))
		if (errP == nil) != (errS == nil) {
			t.Fatalf("set %d: TuneDeadlines error mismatch: %v vs %v", i, errP, errS)
		}
		if errP == nil && !reflect.DeepEqual(trP, trS) {
			t.Fatalf("set %d: TuneDeadlines %+v != reference %+v", i, trP, trS)
		}
	}
}

// TestSessionMatchesScalarGroundTruth drives an edit stream through a
// Session and checks each re-analysis against the reference walks —
// tying the delta / session tier to the plainest possible evaluation of
// Theorem 2 and Corollary 5 in one end-to-end differential.
func TestSessionMatchesScalarGroundTruth(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260808))
	base := prunedSets(t, 3)[0]
	ss, err := NewSession(base, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	nextName := 0
	for step := 0; step < 25; step++ {
		e, ok := randomEdit(rnd, ss.Set(), &nextName)
		if !ok {
			continue
		}
		if err := ss.Apply(e); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		r, _, err := ss.Report()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := referenceMinSpeedup(ss.Set(), Options{})
		if err != nil {
			t.Fatalf("step %d: scalar MinSpeedup: %v", step, err)
		}
		if want.Exact && !sameSpeedupPayload(r.Speedup, want) {
			t.Fatalf("step %d: session speedup %+v != scalar %+v:\n%s",
				step, r.Speedup, want, ss.Set().Table())
		}
		wantReset, err := referenceResetTime(ss.Set(), rat.Two)
		if err != nil {
			t.Fatalf("step %d: scalar ResetTime: %v", step, err)
		}
		if !r.Reset.Reset.Eq(wantReset.Reset) {
			t.Fatalf("step %d: session Δ_R %v != scalar %v", step, r.Reset.Reset, wantReset.Reset)
		}
	}
}

// TestAnalyzeMatchesReferenceWalks pins the served report bytes to the
// reference walks: Analyze's MarshalIndent output must equal the report
// assembled from referenceMinSpeedup and referenceResetTime. The server's
// batch test ties /v1/batch bytes to Analyze, so together they keep the
// HTTP tier on the plainest evaluation of Theorem 2 and Corollary 5.
func TestAnalyzeMatchesReferenceWalks(t *testing.T) {
	sets := append([]task.Set{examplesets.TableI()}, prunedSets(t, 8)...)
	for i, s := range sets {
		for _, speed := range []rat.Rat{rat.New(3, 2), rat.Two} {
			got, err := Analyze(s, speed)
			if err != nil {
				continue
			}
			sp, err := referenceMinSpeedup(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := referenceResetTime(s, speed)
			if err != nil {
				t.Fatal(err)
			}
			lo, err := SchedulableLO(s)
			if err != nil {
				t.Fatal(err)
			}
			want := Report{
				Set: s.Clone(), Speed: speed, UtilLO: s.Util(task.LO), UtilHI: s.Util(task.HI),
				SchedulableLO: lo, Speedup: sp, SchedulableHI: speed.Cmp(sp.Speedup) >= 0, Reset: rr,
				ClosedSpeedup: ClosedFormSpeedup(s), ClosedReset: ClosedFormReset(s, speed),
			}
			gotJSON, err := got.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := want.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("set %d speed %v: Analyze bytes != reference report:\n%s\n---\n%s", i, speed, gotJSON, wantJSON)
			}
		}
	}
}

// FuzzPlanEquivalence fuzzes the planned-vs-scalar property over random
// task sets at the evaluation layer every walk is built on: a walker
// stepping event by event through the compiled plan, the plan's whole-set
// Value, and a walker fast-forwarded by SkipTo must all agree with the
// scalar closed forms (dbf.SetNextEvent, setValue, dbf.SetRightSlope) at
// every point, for both HI-mode curves. The walk-level counterpart, production
// analyses against the reference walks, is FuzzWalkEquivalence.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(2))
	f.Add(int64(42), uint8(1), uint8(5), uint8(0))
	f.Add(int64(20260808), uint8(5), uint8(60), uint8(7))
	f.Add(int64(-11), uint8(2), uint8(120), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, skipRaw uint8) {
		rnd := rand.New(rand.NewSource(seed))
		s := randomSet(rnd, 1+int(nRaw%5), 3+int64(maxPRaw%120))
		if s.Validate() != nil {
			t.Skip()
		}
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			w := newHIWalker(s, kind)
			for step := 0; step < 300; step++ {
				pos := w.Pos()
				if v := setValue(s, kind, pos); w.Value() != v || w.Plan().Value(pos) != v {
					t.Fatalf("kind %d at %d: walker %d, plan %d, scalar %d\n%s",
						kind, pos, w.Value(), w.Plan().Value(pos), v, s.Table())
				}
				if m := dbf.SetRightSlope(s, kind, pos); w.Slope() != m {
					t.Fatalf("kind %d at %d: slope %d, scalar %d\n%s", kind, pos, w.Slope(), m, s.Table())
				}
				wantNext, wantOK := dbf.SetNextEvent(s, kind, pos)
				gotNext, gotOK := w.PeekNext()
				if wantOK != gotOK || (wantOK && gotNext != wantNext) {
					t.Fatalf("kind %d at %d: next (%d, %v), scalar (%d, %v)\n%s",
						kind, pos, gotNext, gotOK, wantNext, wantOK, s.Table())
				}
				if !wantOK {
					break
				}
				// Every few events, jump ahead off the event grid instead
				// of stepping; the next iteration checks the landing point.
				if skipRaw > 0 && step%7 == 6 {
					w.SkipTo(pos + 1 + task.Time(skipRaw))
				} else {
					w.Next()
				}
			}
		}
	})
}
