package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Property tests pinning the incumbent bulk-skip pruning inside the event
// walks: for every exact result, the production (pruned) walks and the
// event-by-event reference walks of ref_test.go must agree on every
// payload field — only the Events/Jumps accounting may differ, and Events
// never upward. The skip certificates are only allowed to discard events
// they have proved irrelevant, so any divergence here is a soundness bug.

// prunedSets yields generator sets plus, when feasible, their y = 2
// MinimalX preparations — the configuration the experiments analyze.
func prunedSets(t *testing.T, n int) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(20260805))
	p := gen.Defaults()
	var sets []task.Set
	for i := 0; i < n; i++ {
		u := 0.4 + 0.5*rnd.Float64()
		s := p.MustSet(rnd, u)
		sets = append(sets, s)
		if shaped, err := s.DegradeLO(rat.Two); err == nil {
			if _, prepared, err := MinimalX(shaped); err == nil {
				sets = append(sets, prepared)
			}
		}
	}
	return sets
}

// fmsPreparedSet returns the flight-management set with y = 2 degradation
// and minimal virtual deadlines — the configuration of Fig. 5b.
func fmsPreparedSet(t testing.TB) task.Set {
	t.Helper()
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	set, err = set.DegradeLO(rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	_, prepared, err := MinimalX(set)
	if err != nil {
		t.Fatal(err)
	}
	return prepared
}

func TestMinSpeedupPrunedUnprunedIdentical(t *testing.T) {
	for i, s := range prunedSets(t, 30) {
		unpruned, errU := referenceMinSpeedup(s, Options{})
		pruned, errP := MinSpeedup(s)
		if (errU == nil) != (errP == nil) {
			t.Fatalf("set %d: error mismatch: %v vs %v", i, errU, errP)
		}
		if errU != nil {
			continue
		}
		if pruned.Events > unpruned.Events {
			t.Fatalf("set %d: pruned examined %d events > unpruned %d:\n%s",
				i, pruned.Events, unpruned.Events, s.Table())
		}
		if unpruned.Exact && !sameSpeedupPayload(pruned, unpruned) {
			t.Fatalf("set %d: pruned %+v != unpruned %+v:\n%s", i, pruned, unpruned, s.Table())
		}
	}
}

func TestResetTimePrunedUnprunedIdentical(t *testing.T) {
	speeds := []rat.Rat{rat.New(9, 10), rat.One, rat.New(3, 2), rat.Two, rat.FromInt64(3)}
	for i, s := range prunedSets(t, 20) {
		for _, sp := range speeds {
			unpruned, errU := referenceResetTime(s, sp)
			pruned, errP := ResetTime(s, sp)
			if (errU == nil) != (errP == nil) {
				t.Fatalf("set %d speed %v: error mismatch: %v vs %v", i, sp, errU, errP)
			}
			if errU != nil {
				continue
			}
			if !pruned.Reset.Eq(unpruned.Reset) {
				t.Fatalf("set %d speed %v: pruned Δ_R %v != unpruned %v:\n%s",
					i, sp, pruned.Reset, unpruned.Reset, s.Table())
			}
			if pruned.Events > unpruned.Events {
				t.Fatalf("set %d speed %v: pruned examined %d events > unpruned %d",
					i, sp, pruned.Events, unpruned.Events)
			}
		}
	}
}

func TestMinSpeedForResetPrunedUnprunedIdentical(t *testing.T) {
	budgets := []task.Time{1, 7, 100, 5_000, 50_000}
	for i, s := range prunedSets(t, 20) {
		for _, b := range budgets {
			unpruned, errU := referenceMinSpeedForReset(s, b, Options{})
			pruned, errP := MinSpeedForReset(s, b)
			if (errU == nil) != (errP == nil) {
				t.Fatalf("set %d budget %d: error mismatch: %v vs %v", i, b, errU, errP)
			}
			if errU != nil {
				continue
			}
			if !sameSpeedForResetPayload(pruned, unpruned) {
				t.Fatalf("set %d budget %d: pruned %+v != unpruned %+v:\n%s",
					i, b, pruned, unpruned, s.Table())
			}
			if pruned.Events > unpruned.Events {
				t.Fatalf("set %d budget %d: pruned examined %d events > unpruned %d",
					i, b, pruned.Events, unpruned.Events)
			}
		}
	}
}

// TestMinSpeedupWarmWitnessInvariance: the WarmWitness seed must not be
// able to change any exact result — it only primes the skip cutoff, whose
// certificate is strict. Degenerate witnesses (zero, one, beyond the
// hyperperiod, beyond the skip horizon) must be equally harmless.
func TestMinSpeedupWarmWitnessInvariance(t *testing.T) {
	for i, s := range prunedSets(t, 20) {
		base, err := MinSpeedup(s)
		if err != nil || !base.Exact {
			continue
		}
		witnesses := []task.Time{0, 1, 2, base.WitnessDelta, base.WitnessDelta + 1,
			1 << 20, skipHorizon, skipHorizon + 1}
		for _, wd := range witnesses {
			got, err := MinSpeedupOpts(s, Options{WarmWitness: wd})
			if err != nil {
				t.Fatalf("set %d witness %d: %v", i, wd, err)
			}
			if !got.Speedup.Eq(base.Speedup) || !got.LowerBound.Eq(base.LowerBound) ||
				got.Exact != base.Exact || got.WitnessDelta != base.WitnessDelta {
				t.Fatalf("set %d witness %d: %+v != baseline %+v:\n%s", i, wd, got, base, s.Table())
			}
		}
	}
}

// TestFMSPruningStrictlyFewerEvents pins the pruning win on the paper's
// flight-management set: the reference walks visit exactly 2436, 27 and
// 303 events (the event-by-event counts the benchmark trajectory has
// always reported), and the production walks must examine strictly fewer,
// with at least one bulk skip, on all three analyses.
func TestFMSPruningStrictlyFewerEvents(t *testing.T) {
	prepared := fmsPreparedSet(t)

	sp, err := MinSpeedup(prepared)
	if err != nil {
		t.Fatal(err)
	}
	spRef, err := referenceMinSpeedup(prepared, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spRef.Events != 2436 {
		t.Fatalf("MinSpeedup reference examined %d events, want 2436", spRef.Events)
	}
	if sp.Events >= spRef.Events || sp.Jumps == 0 {
		t.Fatalf("MinSpeedup: events=%d jumps=%d vs reference events=%d — expected strict win",
			sp.Events, sp.Jumps, spRef.Events)
	}

	rr, err := ResetTime(prepared, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	rrRef, err := referenceResetTime(prepared, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if rrRef.Events != 27 {
		t.Fatalf("ResetTime reference examined %d events, want 27", rrRef.Events)
	}
	if rr.Events >= rrRef.Events || rr.Jumps == 0 {
		t.Fatalf("ResetTime: events=%d jumps=%d vs reference events=%d — expected strict win",
			rr.Events, rr.Jumps, rrRef.Events)
	}

	sr, err := MinSpeedForReset(prepared, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	srRef, err := referenceMinSpeedForReset(prepared, 50_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srRef.Events != 303 {
		t.Fatalf("MinSpeedForReset reference examined %d events, want 303", srRef.Events)
	}
	if sr.Events >= srRef.Events || sr.Jumps == 0 {
		t.Fatalf("MinSpeedForReset: events=%d jumps=%d vs reference events=%d — expected strict win",
			sr.Events, sr.Jumps, srRef.Events)
	}
}

// TestWalkerSkipToMatchesReset: after SkipTo(target) the walker must hold
// exactly the state a fresh walk would reach — the scalar summed value
// and slope at the target, and the identical event sequence afterwards.
func TestWalkerSkipToMatchesReset(t *testing.T) {
	rnd := rand.New(rand.NewSource(515))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 25)
		if err := s.Validate(); err != nil {
			continue
		}
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			// Advance a walker a few events before skipping, so the jump
			// starts from a mid-walk state (mixed per-task positions).
			jumped := newHIWalker(s, kind)
			for k := 0; k < rnd.Intn(4); k++ {
				jumped.Next()
			}
			target := jumped.Pos() + 1 + task.Time(rnd.Intn(500))
			jumped.SkipTo(target)

			if v := setValue(s, kind, target); jumped.Value() != v {
				t.Fatalf("kind %d target %d: SkipTo value %d, direct %d:\n%s",
					kind, target, jumped.Value(), v, s.Table())
			}
			if m := dbf.SetRightSlope(s, kind, target); jumped.Slope() != m {
				t.Fatalf("kind %d target %d: SkipTo slope %d, direct %d", kind, target, jumped.Slope(), m)
			}

			// The continuation must be indistinguishable from a fresh
			// walker fast-forwarded event by event past the target.
			stepped := newHIWalker(s, kind)
			for {
				next, ok := stepped.PeekNext()
				if !ok || next > target {
					break
				}
				stepped.Next()
			}
			for k := 0; k < 20; k++ {
				okJ := jumped.Next()
				okS := stepped.Next()
				if okJ != okS {
					t.Fatalf("kind %d target %d step %d: ok %v vs %v", kind, target, k, okJ, okS)
				}
				if !okJ {
					break
				}
				if jumped.Pos() != stepped.Pos() || jumped.Value() != stepped.Value() ||
					jumped.Slope() != stepped.Slope() {
					t.Fatalf("kind %d target %d step %d: jumped (%d,%d,%d) vs stepped (%d,%d,%d)",
						kind, target, k,
						jumped.Pos(), jumped.Value(), jumped.Slope(),
						stepped.Pos(), stepped.Value(), stepped.Slope())
				}
			}
		}
	}
}
