package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// FuzzWalkEquivalence drives the production event walks (compiled plan,
// bulk skips) and the reference walks of ref_test.go (scalar
// re-evaluation of the whole set at every event) over fuzzer-chosen random
// task sets, and asserts they agree on every exact result, for all three
// analyses. The plan lowering and the skip certificates (incumbent ratio
// cutoffs, QPA fast-forward, infimum skips) must be behaviour-preserving
// on every input, not just the seeded corpus — any payload divergence or
// a production walk examining MORE events is a bug.
func FuzzWalkEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(2), uint16(100))
	f.Add(int64(42), uint8(1), uint8(5), uint8(0), uint16(1))
	f.Add(int64(20260805), uint8(5), uint8(60), uint8(7), uint16(5000))
	f.Add(int64(-7), uint8(2), uint8(120), uint8(15), uint16(300))
	f.Add(int64(1), uint8(3), uint8(20), uint8(2), uint16(7))
	f.Add(int64(42), uint8(1), uint8(5), uint8(0), uint16(64))
	f.Add(int64(20260808), uint8(5), uint8(60), uint8(7), uint16(500))
	f.Add(int64(-11), uint8(2), uint8(120), uint8(15), uint16(50000))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, speedRaw uint8, budgetRaw uint16) {
		rnd := rand.New(rand.NewSource(seed))
		s := randomSet(rnd, 1+int(nRaw%5), 3+int64(maxPRaw%120))
		if s.Validate() != nil {
			t.Skip() // randomSet can emit degenerate degraded tasks for tiny periods
		}
		// Generous MaxEvents keeps the walks exact; the equality
		// properties below only bind when the reference result is exact.
		opts := Options{MaxEvents: 2_000_000}

		ref, errR := referenceMinSpeedup(s, opts)
		got, errP := MinSpeedupOpts(s, opts)
		if (errR == nil) != (errP == nil) {
			t.Fatalf("MinSpeedup error mismatch: %v vs %v\n%s", errR, errP, s.Table())
		}
		if errR == nil {
			if got.Events > ref.Events {
				t.Fatalf("MinSpeedup examined %d > reference %d\n%s", got.Events, ref.Events, s.Table())
			}
			if ref.Exact && !sameSpeedupPayload(got, ref) {
				t.Fatalf("MinSpeedup %+v != reference %+v\n%s", got, ref, s.Table())
			}
		}

		speed := rat.New(int64(speedRaw%40)+10, 10) // 1.0 .. 4.9
		rrR, errR := referenceResetTime(s, speed)
		rrP, errP := ResetTimeOpts(s, speed, opts)
		if (errR == nil) != (errP == nil) {
			t.Fatalf("ResetTime(%v) error mismatch: %v vs %v\n%s", speed, errR, errP, s.Table())
		}
		if errR == nil {
			if !rrP.Reset.Eq(rrR.Reset) {
				t.Fatalf("ResetTime(%v) Δ_R %v != reference %v\n%s", speed, rrP.Reset, rrR.Reset, s.Table())
			}
			if rrP.Events > rrR.Events {
				t.Fatalf("ResetTime(%v) examined %d > reference %d\n%s", speed, rrP.Events, rrR.Events, s.Table())
			}
		}

		budget := task.Time(budgetRaw) + 1
		srR, errR := referenceMinSpeedForReset(s, budget, opts)
		srP, errP := MinSpeedForResetOpts(s, budget, opts)
		if (errR == nil) != (errP == nil) {
			t.Fatalf("MinSpeedForReset(%d) error mismatch: %v vs %v\n%s", budget, errR, errP, s.Table())
		}
		if errR == nil {
			if !sameSpeedForResetPayload(srP, srR) {
				t.Fatalf("MinSpeedForReset(%d) %+v != reference %+v\n%s", budget, srP, srR, s.Table())
			}
			if srP.Events > srR.Events {
				t.Fatalf("MinSpeedForReset(%d) examined %d > reference %d\n%s", budget, srP.Events, srR.Events, s.Table())
			}
		}
	})
}
