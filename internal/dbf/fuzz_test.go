package dbf

import (
	"testing"

	"mcspeedup/internal/task"
)

// fuzzRow builds one plan row of the given shape from fuzz inputs, every
// time parameter then scaled by 2^scale so that large periods reach the
// division's multiply path near divFloorMax. The shapes cover the row
// geometry the kernel distinguishes: HI and LO rows from quickTask
// (degraded and terminated LO rows included), a ramp clipped to the
// period (D(LO) < C(LO); such a row fails Validate but the plan lowers it
// all the same), a zero window offset for both kinds with C(LO) = C(HI)
// (an implicit-deadline LO row), a terminated row, and an HI row with
// C(LO) = C(HI) and D(LO) = C(LO), whose ADB ramp ends exactly at T.
func fuzzRow(p, a, b, c uint16, shape, scale uint8) task.Task {
	var tk task.Task
	period := task.Time(p%397) + 3
	cLO := task.Time(a)%(period/2+1) + 1
	switch shape % 6 {
	case 0:
		tk = quickTask(p, a, b, c, true, 0)
	case 1:
		tk = quickTask(p, a, b, c, false, uint8(c))
	case 2:
		dLO := 1 + task.Time(b)%max(cLO-1, 1) // below C(LO) once C(LO) ≥ 2
		cHI := cLO + task.Time(c)%(period-cLO+1)
		tk = task.Task{Crit: task.HI, Period: [2]task.Time{period, period},
			Deadline: [2]task.Time{dLO, period}, WCET: [2]task.Time{cLO, cHI}}
	case 3:
		tk = task.NewLO("", period, period, cLO)
	case 4:
		tk = task.NewLO("", period, period, cLO)
		tk.Period[task.HI], tk.Deadline[task.HI] = task.Unbounded, task.Unbounded
	case 5:
		tk = task.NewHI("", period, cLO, cLO+1+task.Time(b)%(period-cLO), cLO, cLO)
	}
	m := task.Time(1) << (scale % 41)
	for _, v := range []*task.Time{&tk.Period[task.LO], &tk.Period[task.HI],
		&tk.Deadline[task.LO], &tk.Deadline[task.HI], &tk.WCET[task.LO], &tk.WCET[task.HI]} {
		if !v.IsUnbounded() {
			*v *= m
		}
	}
	return tk
}

// fuzzDeltas returns the evaluation points for a row of period T with
// window offset off and ramp end end: the raw draw, the period multiples
// k·T and the ramp start and end of period k, each with its ±1
// neighbours, and the points around divFloorMax where the division
// switches from the reciprocal multiply to the hardware path.
func fuzzDeltas(k uint64, period, off, end task.Time) []task.Time {
	const top = task.Time(1) << 61
	pts := []task.Time{task.Time(k % uint64(top)), divFloorMax - 1, divFloorMax, divFloorMax + 1}
	if period <= 0 {
		return pts
	}
	q := divFloorMax / period
	for _, j := range []task.Time{0, 1, 2, task.Time(k % 7), task.Time(k % uint64(top/period)), q, q + 1} {
		base := j * period
		for _, c := range []task.Time{base, base + off, base + end} {
			pts = append(pts, c-1, c, c+1)
		}
	}
	out := pts[:0]
	for _, d := range pts {
		if d >= 0 && d < top {
			out = append(out, d)
		}
	}
	return out
}

// FuzzPlanRows: every Plan evaluator — TaskValue, TaskStep, Value,
// ValueCapped and BulkEval — must match the scalar closed forms HIMode or
// ADB, RightSlope and NextEvent exactly, for both kinds, on a two-row set
// of fuzzed shapes at the row's event points and their neighbours.
func FuzzPlanRows(f *testing.F) {
	f.Add(uint16(10), uint16(2), uint16(4), uint16(7), uint8(0), uint8(0), uint64(0), uint16(5), uint8(1))
	f.Add(uint16(30), uint16(5), uint16(1), uint16(9), uint8(2), uint8(0), uint64(61), uint16(8), uint8(3))
	f.Add(uint16(7), uint16(3), uint16(0), uint16(0), uint8(3), uint8(12), uint64(1<<51), uint16(2), uint8(4))
	f.Add(uint16(396), uint16(100), uint16(50), uint16(3), uint8(5), uint8(40), uint64(1<<51-1), uint16(1), uint8(0))
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint8(4), uint8(33), uint64(1<<52), uint16(0), uint8(5))
	f.Add(uint16(211), uint16(9), uint16(77), uint16(150), uint8(1), uint8(20), uint64(12345678901), uint16(99), uint8(2))
	f.Fuzz(func(t *testing.T, p, a, b, c uint16, shape, scale uint8, k uint64, p2 uint16, shape2 uint8) {
		s := task.Set{fuzzRow(p, a, b, c, shape, scale), fuzzRow(p2, b, c, a, shape2, scale/2)}
		for _, kind := range []Kind{KindDBF, KindADB} {
			plan := CompilePlan(s, kind)
			deltas := fuzzDeltas(k, plan.period[0], plan.off[0], plan.end[0])
			bulk := plan.BulkEval(make([]task.Time, len(deltas)), deltas)
			for j, d := range deltas {
				want := SetValue(s, kind, d)
				if got := plan.Value(d); got != want {
					t.Fatalf("kind %d Δ=%d: Value %d, scalar %d\n%+v", kind, d, got, want, s)
				}
				if bulk[j] != want {
					t.Fatalf("kind %d Δ=%d: BulkEval %d, scalar %d\n%+v", kind, d, bulk[j], want, s)
				}
				for _, limit := range []task.Time{want - 1, want} {
					if limit < 0 {
						continue
					}
					sum, ok := plan.ValueCapped(d, limit)
					if ok != (want <= limit) || (ok && sum != want) || (!ok && sum <= limit) {
						t.Fatalf("kind %d Δ=%d limit %d: ValueCapped (%d, %v), full %d\n%+v", kind, d, limit, sum, ok, want, s)
					}
				}
				for i := range s {
					wantV := taskValue(&s[i], kind, d)
					if got := plan.TaskValue(i, d); got != wantV {
						t.Fatalf("kind %d row %d Δ=%d: TaskValue %d, scalar %d\n%+v", kind, i, d, got, wantV, s[i])
					}
					wantSlope := RightSlope(&s[i], kind, d)
					wantNext, wantOK := NextEvent(&s[i], kind, d)
					v, slope, next, ok := plan.TaskStep(i, d)
					if v != wantV || slope != wantSlope || ok != wantOK || (ok && next != wantNext) {
						t.Fatalf("kind %d row %d Δ=%d: TaskStep (%d, %d, %d, %v), scalar (%d, %d, %d, %v)\n%+v",
							kind, i, d, v, slope, next, ok, wantV, wantSlope, wantNext, wantOK, s[i])
					}
				}
			}
		}
	})
}
