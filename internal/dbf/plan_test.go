package dbf

// Unit and property tests for the compiled columnar plan: every plan
// entry point must agree exactly with the scalar per-task closed forms
// it was lowered from, on every input — the package-level half of the
// plan-vs-legacy differential (internal/core pins the walk-level half).

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/task"
)

// quickSet builds a small random set from quickTask draws.
func quickSet(rnd *rand.Rand, n int) task.Set {
	s := make(task.Set, n)
	for i := range s {
		tk := quickTask(uint16(rnd.Uint32()), uint16(rnd.Uint32()), uint16(rnd.Uint32()),
			uint16(rnd.Uint32()), rnd.Intn(2) == 0, uint8(rnd.Uint32()))
		tk.Name = string(rune('a' + i))
		s[i] = tk
	}
	return s
}

// probePoints returns deterministic + random evaluation points covering
// the event structure of every task in s: each task's window offset, ramp
// end, and period multiples, plus their ±1 neighbours.
func probePoints(rnd *rand.Rand, s task.Set, kind Kind) []task.Time {
	pts := []task.Time{0, 1, 2, 3}
	for i := range s {
		t := &s[i]
		if t.Terminated() {
			continue
		}
		T := t.Period[task.HI]
		var off task.Time
		if kind == KindDBF {
			off = t.Deadline[task.HI] - t.Deadline[task.LO]
		} else {
			off = T - t.Deadline[task.LO]
		}
		for _, k := range []task.Time{0, 1, 2, 7} {
			base := k * T
			pts = append(pts, base, base+off, base+off+t.WCET[task.LO])
			if base > 0 {
				pts = append(pts, base-1, base+off+1)
			}
		}
	}
	for j := 0; j < 40; j++ {
		pts = append(pts, task.Time(rnd.Int63n(100_000)))
	}
	return pts
}

func TestPlanMatchesScalarPointwise(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 200; iter++ {
		s := quickSet(rnd, 1+rnd.Intn(6))
		for _, kind := range []Kind{KindDBF, KindADB} {
			p := CompilePlan(s, kind)
			if p.Len() != len(s) || p.Kind() != kind {
				t.Fatalf("compile: Len/Kind (%d, %d) != (%d, %d)", p.Len(), p.Kind(), len(s), kind)
			}
			for _, d := range probePoints(rnd, s, kind) {
				if got, want := p.Value(d), SetValue(s, kind, d); got != want {
					t.Fatalf("kind %d Δ=%d: Plan.Value %d != SetValue %d\n%s", kind, d, got, want, s.Table())
				}
				for i := range s {
					wantV := taskValue(&s[i], kind, d)
					wantSlope := RightSlope(&s[i], kind, d)
					wantNext, wantOK := NextEvent(&s[i], kind, d)
					if got := p.TaskValue(i, d); got != wantV {
						t.Fatalf("kind %d task %d Δ=%d: TaskValue %d != scalar %d\n%s",
							kind, i, d, got, wantV, s.Table())
					}
					v, slope, next, ok := p.TaskStep(i, d)
					if v != wantV || slope != wantSlope || ok != wantOK || (ok && next != wantNext) {
						t.Fatalf("kind %d task %d Δ=%d: TaskStep (%d, %d, %d, %v) != scalar (%d, %d, %d, %v)",
							kind, i, d, v, slope, next, ok, wantV, wantSlope, wantNext, wantOK)
					}
				}
			}
		}
	}
}

func TestPlanValueCappedMatchesValue(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		s := quickSet(rnd, 1+rnd.Intn(6))
		for _, kind := range []Kind{KindDBF, KindADB} {
			p := CompilePlan(s, kind)
			for j := 0; j < 30; j++ {
				d := task.Time(rnd.Int63n(50_000))
				full := p.Value(d)
				for _, limit := range []task.Time{0, full - 1, full, full + 1, full * 2} {
					if limit < 0 {
						continue
					}
					sum, ok := p.ValueCapped(d, limit)
					if wantOK := full <= limit; ok != wantOK {
						t.Fatalf("kind %d Δ=%d limit %d: ok=%v, full=%d", kind, d, limit, ok, full)
					}
					if ok && sum != full {
						t.Fatalf("kind %d Δ=%d limit %d: capped sum %d != full %d", kind, d, limit, sum, full)
					}
					if !ok && sum <= limit {
						t.Fatalf("kind %d Δ=%d limit %d: early exit with partial %d ≤ limit", kind, d, limit, sum)
					}
				}
			}
		}
	}
}

func TestPlanBulkEvalMatchesPointwise(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		s := quickSet(rnd, 1+rnd.Intn(6))
		for _, kind := range []Kind{KindDBF, KindADB} {
			p := CompilePlan(s, kind)
			m := rnd.Intn(17) // including the empty batch
			deltas := make([]task.Time, m)
			for j := range deltas {
				deltas[j] = task.Time(rnd.Int63n(200_000))
			}
			dst := make([]task.Time, len(deltas)+3) // spare capacity must be tolerated
			out := p.BulkEval(dst, deltas)
			if len(out) != len(deltas) {
				t.Fatalf("BulkEval returned %d results for %d deltas", len(out), len(deltas))
			}
			for j, d := range deltas {
				if want := SetValue(s, kind, d); out[j] != want {
					t.Fatalf("kind %d Δ=%d: BulkEval %d != SetValue %d\n%s", kind, d, out[j], want, s.Table())
				}
			}
		}
	}
}

// TestPlanCompileSubset pins the delta path's partial compile: a subset
// plan must evaluate exactly the selected rows, in idx order, and
// recompiling a grown plan down to a smaller subset must not leak stale
// rows.
func TestPlanCompileSubset(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		s := quickSet(rnd, 2+rnd.Intn(5))
		var p Plan
		p.Compile(s, KindDBF) // full compile first: subset must shrink cleanly
		idx := rnd.Perm(len(s))[:1+rnd.Intn(len(s))]
		p.CompileSubset(s, idx, KindDBF)
		if p.Len() != len(idx) {
			t.Fatalf("subset Len %d != %d", p.Len(), len(idx))
		}
		for j := 0; j < 20; j++ {
			d := task.Time(rnd.Int63n(50_000))
			var want task.Time
			for _, i := range idx {
				want += HIMode(&s[i], d)
			}
			if got := p.Value(d); got != want {
				t.Fatalf("idx %v Δ=%d: subset Value %d != %d\n%s", idx, d, got, want, s.Table())
			}
			for j, i := range idx {
				if got, want := p.TaskValue(j, d), HIMode(&s[i], d); got != want {
					t.Fatalf("idx %v row %d Δ=%d: TaskValue %d != %d", idx, j, d, got, want)
				}
			}
		}
	}
}

// TestDivFloorExact exercises the reciprocal-multiply division across its
// edges: quotient boundaries (k·T−1, k·T, k·T+1), periods near the
// fixup-sensitive sizes, and intervals at and beyond divFloorMax where
// the hardware-division fallback takes over.
func TestDivFloorExact(t *testing.T) {
	periods := []task.Time{1, 2, 3, 5, 7, 97, 396, 1 << 20, (1 << 31) - 1, (1 << 45) + 12345}
	for _, T := range periods {
		inv := 1 / float64(T)
		var deltas []task.Time
		for _, k := range []task.Time{0, 1, 2, 3, 1000} {
			if base := k * T; base >= 0 {
				deltas = append(deltas, base, base+1)
				if base > 0 {
					deltas = append(deltas, base-1)
				}
			}
		}
		deltas = append(deltas, divFloorMax-1, divFloorMax, divFloorMax+1, task.Time(1)<<62)
		for _, d := range deltas {
			if d < 0 {
				continue
			}
			if got, want := divFloor(d, T, inv), d/T; got != want {
				t.Fatalf("divFloor(%d, %d) = %d, want %d", d, T, got, want)
			}
		}
	}
	// Adversarial sweep: random (Δ, T) pairs across magnitudes, including
	// just below the multiply-path cutoff.
	rnd := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200_000; iter++ {
		T := task.Time(1 + rnd.Int63n(1<<uint(1+rnd.Intn(40))))
		d := task.Time(rnd.Int63n(int64(divFloorMax)))
		if got, want := divFloor(d, T, 1/float64(T)), d/T; got != want {
			t.Fatalf("divFloor(%d, %d) = %d, want %d", d, T, got, want)
		}
	}
}

// TestPointMemoExactUnderEdits drives a PointMemo through an edit stream
// and pins its sum against cold SetValue at every step, including kind
// and Δ switches (wholesale rebuilds) and explicit invalidation.
func TestPointMemoExactUnderEdits(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		s := quickSet(rnd, 2+rnd.Intn(5))
		var m PointMemo
		kind, delta := KindDBF, task.Time(rnd.Int63n(10_000))
		for step := 0; step < 60; step++ {
			switch rnd.Intn(10) {
			case 0:
				kind = Kind(rnd.Intn(2))
			case 1:
				delta = task.Time(rnd.Int63n(10_000))
			case 2:
				m.Invalidate()
			default:
				// Mutate one task: bump C(LO) within its window (and C(HI)
				// in lockstep for LO-criticality tasks, preserving their
				// C(HI) = C(LO) invariant).
				i := rnd.Intn(len(s))
				tk := &s[i]
				if !tk.Terminated() && tk.WCET[task.LO] > 1 && rnd.Intn(2) == 0 {
					tk.WCET[task.LO]--
					if tk.Crit == task.LO {
						tk.WCET[task.HI]--
					}
				} else if !tk.Terminated() && tk.Crit == task.HI && tk.WCET[task.HI] > tk.WCET[task.LO] {
					tk.WCET[task.HI]--
				}
			}
			if got, want := m.Value(s, kind, delta), SetValue(s, kind, delta); got != want {
				t.Fatalf("step %d kind %d Δ=%d: memo %d != cold %d\n%s", step, kind, delta, got, want, s.Table())
			}
		}
	}
}

// SetValue returns the summed kind-selected HI-mode curve at Δ:
// Σ_i DBF_HI for KindDBF, Σ_i ADB_HI for KindADB — the scalar O(n)
// single-point evaluation that Plan.Value and PointMemo.Value reproduce
// exactly.
func SetValue(s task.Set, kind Kind, delta task.Time) task.Time {
	if kind == KindDBF {
		return SetHIMode(s, delta)
	}
	return SetADB(s, delta)
}
