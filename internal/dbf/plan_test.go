package dbf

// Unit and property tests for the compiled columnar plan: every plan
// entry point must agree exactly with the scalar per-task closed forms
// it was lowered from, on every input — the package-level half of the
// plan-vs-legacy differential (internal/core pins the walk-level half).

import (
	"math"
	"math/big"
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

// SetValue returns the summed kind-selected HI-mode curve at Δ:
// Σ_i DBF_HI for KindDBF, Σ_i ADB_HI for KindADB — the scalar O(n)
// single-point evaluation that Plan.Value and BulkEval reproduce exactly.
func SetValue(s task.Set, kind Kind, delta task.Time) task.Time {
	if kind == KindDBF {
		return SetHIMode(s, delta)
	}
	return SetADB(s, delta)
}

// TaskValue returns row i's curve value at Δ through the compiled
// columns, the per-row view of Plan.Value the tests pin against
// taskValue.
func (p *Plan) TaskValue(i int, delta task.Time) task.Time {
	period := p.period[i]
	if period == 0 {
		return p.add[i]
	}
	_, v := rowAt(delta, period, p.inv[i], p.off[i], p.cLO[i], p.cHI[i], p.dC[i], p.add[i])
	return v
}

// taskValue is the scalar per-task evaluation of one curve kind, the
// reference for Plan.TaskValue.
func taskValue(t *task.Task, kind Kind, delta task.Time) task.Time {
	if kind == KindDBF {
		return HIMode(t, delta)
	}
	return ADB(t, delta)
}

// interceptRow draws one task for the envelope-intercept tests, covering
// every row shape the intercept formula distinguishes: HI rows, LO rows
// (degraded or not), clipped ramps (off + C(LO) > T, so end = T; such a
// row fails Validate, but the plan lowers it all the same), a zero gap
// D(HI) = D(LO) with C(HI) = C(LO), and terminated rows.
func interceptRow(rnd *rand.Rand) task.Task {
	period := task.Time(rnd.Intn(60) + 2)
	switch rnd.Intn(5) {
	case 0: // clipped: D(LO) < C(LO) pushes the ramp end past T
		cLO := task.Time(rnd.Intn(int(period))) + 1
		dLO := task.Time(rnd.Intn(int(cLO)))
		if dLO == 0 {
			dLO = 1
		}
		cHI := cLO + task.Time(rnd.Intn(int(period-cLO)+1))
		return task.Task{Name: "t", Crit: task.HI, Period: [2]task.Time{period, period},
			Deadline: [2]task.Time{dLO, period}, WCET: [2]task.Time{cLO, cHI}}
	case 1: // gap 0, C(HI) = C(LO)
		c := task.Time(rnd.Intn(int(period))) + 1
		d := c + task.Time(rnd.Intn(int(period-c)+1))
		return task.NewLO("t", period, d, c)
	case 2: // terminated
		tk := task.NewLO("t", period, period, task.Time(rnd.Intn(int(period)))+1)
		tk.Period[task.HI], tk.Deadline[task.HI] = task.Unbounded, task.Unbounded
		return tk
	default:
		return quickTask(uint16(rnd.Uint32()), uint16(rnd.Uint32()), uint16(rnd.Uint32()),
			uint16(rnd.Uint32()), rnd.Intn(2) == 0, uint8(rnd.Uint32()))
	}
}

// TestPlanInterceptTight checks the envelope intercept row by row
// against a brute-force scan of Δ ∈ [0, 3T]: T·curve(Δ) ≤ C(HI)·Δ + T·b
// everywhere (the envelope), and b = ⌈max_Δ (T·curve(Δ) − C(HI)·Δ)/T⌉
// (tight up to the ceiling; the maximum sits at an integer Δ, a ramp end
// or a period start, and repeats every period). Terminated rows are the
// constant b. Both curve kinds are checked.
func TestPlanInterceptTight(t *testing.T) {
	rnd := rand.New(rand.NewSource(20261019))
	shapes := map[string]int{}
	for iter := 0; iter < 3000; iter++ {
		tk := interceptRow(rnd)
		for _, kind := range []Kind{KindDBF, KindADB} {
			p := CompilePlan(task.Set{tk}, kind)
			b := p.Intercept()
			if tk.Terminated() {
				shapes["terminated"]++
				for d := task.Time(0); d < 10; d++ {
					if v := p.Value(d); v != b {
						t.Fatalf("%+v kind %d: terminated row value %d at %d, intercept %d", tk, kind, v, d, b)
					}
				}
				continue
			}
			T, c := tk.Period[task.HI], tk.WCET[task.HI]
			if p.end[0] == T && p.off[0]+p.cLO[0] > T {
				shapes["clipped"]++
			}
			if p.off[0] == 0 && p.dC[0] == 0 {
				shapes["gap 0"]++
			}
			maxDiff := task.Time(math.MinInt64)
			for d := task.Time(0); d <= 3*T; d++ {
				diff := T*p.Value(d) - c*d
				if diff > T*b {
					t.Fatalf("%+v kind %d: T·curve(%d) − C·Δ = %d above T·b = %d", tk, kind, d, diff, T*b)
				}
				maxDiff = max(maxDiff, diff)
			}
			if want := (maxDiff + T - 1) / T; b != want {
				t.Fatalf("%+v kind %d: intercept %d, want ⌈%d/%d⌉ = %d", tk, kind, b, maxDiff, T, want)
			}
		}
	}
	for _, shape := range []string{"clipped", "gap 0", "terminated"} {
		if shapes[shape] == 0 {
			t.Errorf("no %s row drawn", shape)
		}
	}
}

// TestPlanInterceptEnvelope checks the summed bound
// Value(Δ) ≤ U·Δ + Intercept() over random sets, U = Σ C(HI)/T(HI) over
// the active rows, exactly in big.Rat, and that Intercept equals the sum
// of the rows' intercepts for full and subset-set compiles alike.
func TestPlanInterceptEnvelope(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		s := make(task.Set, rnd.Intn(6)+1)
		for i := range s {
			s[i] = interceptRow(rnd)
		}
		for _, kind := range []Kind{KindDBF, KindADB} {
			p := CompilePlan(s, kind)
			u := new(big.Rat)
			var rows task.Time
			var maxT task.Time
			for i := range s {
				rows += CompilePlan(s[i:i+1], kind).Intercept()
				if !s[i].Terminated() {
					u.Add(u, big.NewRat(int64(s[i].WCET[task.HI]), int64(s[i].Period[task.HI])))
					maxT = max(maxT, s[i].Period[task.HI])
				}
			}
			if p.Intercept() != rows {
				t.Fatalf("set intercept %d, rows sum to %d", p.Intercept(), rows)
			}
			idx := rnd.Perm(len(s))[:rnd.Intn(len(s))+1]
			var sub task.Time
			var subset task.Set
			for _, i := range idx {
				sub += CompilePlan(s[i:i+1], kind).Intercept()
				subset = append(subset, s[i])
			}
			var q Plan
			q.Compile(s, kind) // a stale intercept must not leak into the subset
			if q.Compile(subset, kind); q.Intercept() != sub {
				t.Fatalf("subset intercept %d, rows sum to %d", q.Intercept(), sub)
			}
			for d := task.Time(0); d <= 3*maxT+1; d++ {
				env := new(big.Rat).Mul(u, big.NewRat(int64(d), 1))
				env.Add(env, big.NewRat(int64(p.Intercept()), 1))
				if big.NewRat(int64(p.Value(d)), 1).Cmp(env) > 0 {
					t.Fatalf("Value(%d) = %d above U·Δ + B = %v", d, p.Value(d), env)
				}
			}
		}
	}
}
