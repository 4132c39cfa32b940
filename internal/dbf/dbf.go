// Package dbf implements the demand bound functions used by the paper's
// schedulability and resetting-time analysis:
//
//   - DBF_LO (eq. (4)): the classical EDF demand bound function of a
//     sporadic task in LO mode — an integer staircase.
//   - DBF_HI (Lemma 1, eqs. (5)–(7)): the HI-mode demand bound of Ekberg &
//     Yi / Huang et al., which adds to the full-job demand a carry-over
//     term r(τ_i, Δ, w(·)) accounting for jobs that were pending at the
//     mode switch. Because the extended real-valued "mod" makes w linear
//     in Δ, DBF_HI is a continuous piecewise-linear function (with
//     occasional upward jumps at period multiples when the carry-over
//     window is clipped), not a staircase.
//   - ADB_HI (Theorem 4, eqs. (9)–(10)): the worst-case *arrived* demand
//     bound from the moment of the mode switch, used to bound the service
//     resetting time. Lemma 3 justifies that the worst case has the
//     analysis interval end at a job arrival, which yields the window
//     term w'(τ_i, Δ) = (Δ mod T(HI)) − (T(HI) − D(LO)) — the geometry
//     sketched in the paper's Fig. 2.
//
// With integer task parameters every slope-change point ("event") of
// DBF_HI and ADB_HI is an integer, and the function value at integer
// points is an integer, so the whole analysis stays in exact integer /
// rational arithmetic.
//
// Terminated LO tasks (T(HI) = D(HI) = ∞, eq. (3)) follow the formulas
// literally: the extended mod makes w = −∞, so DBF_HI is 0 (a dropped
// task demands nothing with a finite deadline), while ADB_HI still counts
// the single carry-over job's C(HI) — its residual work must drain before
// the processor can idle and reset, unless the runtime kills carry-over
// jobs (in which case the analytical bound is simply conservative).
package dbf

import (
	"errors"
	"fmt"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// ErrNegativeInterval is the sentinel wrapped by the panic every exported
// evaluator raises on a negative interval length Δ. A negative Δ is a
// caller bug in library use, hence the panic — but when the interval is
// derived from untrusted input (the mcs-serve endpoints), the boundary
// can recover and test the cause with errors.Is(err, ErrNegativeInterval)
// to turn the crash into an input error instead of taking down the
// process. The internal invariant panics (unknown Kind, NextEvent finding
// no candidate) are genuine unreachable-state assertions and do not wrap
// the sentinel.
var ErrNegativeInterval = errors.New("dbf: negative interval")

// LOMode returns DBF_LO(τ_i, Δ) per eq. (4):
//
//	max{ floor((Δ − D_i(LO))/T_i(LO)) + 1, 0 } · C_i(LO).
func LOMode(t *task.Task, delta task.Time) task.Time {
	d, period, c := t.Deadline[task.LO], t.Period[task.LO], t.WCET[task.LO]
	if delta < d {
		return 0
	}
	n := (delta-d)/period + 1
	return n * c
}

// carry returns the carry-over demand r(τ_i, Δ, w) of eq. (6) for a given
// window value w (integer evaluation).
func carry(t *task.Task, w task.Time) task.Time {
	if w < 0 {
		return 0
	}
	cLO, cHI := t.WCET[task.LO], t.WCET[task.HI]
	m := w
	if m > cLO {
		m = cLO
	}
	return m + cHI - cLO
}

// HIMode returns DBF_HI(τ_i, Δ) per Lemma 1 at an integer interval length.
// For terminated tasks it returns 0 (see the package comment).
func HIMode(t *task.Task, delta task.Time) task.Time {
	if delta < 0 {
		panic(fmt.Errorf("%w %d", ErrNegativeInterval, delta))
	}
	if t.Terminated() {
		return 0
	}
	period := t.Period[task.HI]
	gap := t.Deadline[task.HI] - t.Deadline[task.LO] // ≥ 0 by eq. (1)/(2)
	w := delta%period - gap                          // eq. (5)
	return carry(t, w) + (delta/period)*t.WCET[task.HI]
}

// ADB returns ADB_HI(τ_i, Δ) per Theorem 4 at an integer interval length:
// the worst-case demand *arrived* in [t̂, t̂+Δ] counting the carry-over job
// and floor(Δ/T)+1 further arrivals. For terminated tasks only the
// carry-over job's C(HI) remains (see the package comment).
func ADB(t *task.Task, delta task.Time) task.Time {
	if delta < 0 {
		panic(fmt.Errorf("%w %d", ErrNegativeInterval, delta))
	}
	if t.Terminated() {
		return t.WCET[task.HI]
	}
	period := t.Period[task.HI]
	gap := period - t.Deadline[task.LO] // window offset of eq. (9)
	w := delta%period - gap
	return carry(t, w) + (delta/period+1)*t.WCET[task.HI]
}

// --- rational-point evaluation (used by tests and by exact crossing
// computations; the integer versions above are the hot path) ---

func modRat(x rat.Rat, period task.Time) rat.Rat {
	p := rat.FromInt64(int64(period))
	k := x.Div(p).Floor()
	return x.Sub(p.MulInt(k))
}

func carryRat(t *task.Task, w rat.Rat) rat.Rat {
	if w.Sign() < 0 {
		return rat.Zero
	}
	cLO := rat.FromInt64(int64(t.WCET[task.LO]))
	cHI := rat.FromInt64(int64(t.WCET[task.HI]))
	return rat.Min(w, cLO).Add(cHI).Sub(cLO)
}

// HIModeAt evaluates DBF_HI at a rational interval length.
func HIModeAt(t *task.Task, delta rat.Rat) rat.Rat {
	if delta.Sign() < 0 {
		panic(fmt.Errorf("%w %v", ErrNegativeInterval, delta))
	}
	if t.Terminated() {
		return rat.Zero
	}
	period := t.Period[task.HI]
	gap := rat.FromInt64(int64(t.Deadline[task.HI] - t.Deadline[task.LO]))
	w := modRat(delta, period).Sub(gap)
	full := delta.Div(rat.FromInt64(int64(period))).Floor()
	return carryRat(t, w).Add(rat.FromInt64(int64(t.WCET[task.HI])).MulInt(full))
}

// ADBAt evaluates ADB_HI at a rational interval length.
func ADBAt(t *task.Task, delta rat.Rat) rat.Rat {
	if delta.Sign() < 0 {
		panic(fmt.Errorf("%w %v", ErrNegativeInterval, delta))
	}
	if t.Terminated() {
		return rat.FromInt64(int64(t.WCET[task.HI]))
	}
	period := t.Period[task.HI]
	gap := rat.FromInt64(int64(period - t.Deadline[task.LO]))
	w := modRat(delta, period).Sub(gap)
	full := delta.Div(rat.FromInt64(int64(period))).Floor()
	return carryRat(t, w).Add(rat.FromInt64(int64(t.WCET[task.HI])).MulInt(full + 1))
}

// --- piecewise-linear structure ---

// Kind selects which HI-mode demand curve an event iterator walks.
type Kind uint8

const (
	// KindDBF walks DBF_HI (Lemma 1), whose carry-over window starts at
	// offset D(HI) − D(LO) within each period.
	KindDBF Kind = iota
	// KindADB walks ADB_HI (Theorem 4), whose window starts at offset
	// T(HI) − D(LO) and which counts one extra job per period.
	KindADB
)

// windowOffset returns the phase within [0, T) at which the carry-over
// ramp of the given curve begins for task t, and T itself. ok is false
// for terminated tasks (constant curves with no events).
func windowOffset(t *task.Task, kind Kind) (offset, period task.Time, ok bool) {
	if t.Terminated() {
		return 0, 0, false
	}
	period = t.Period[task.HI]
	switch kind {
	case KindDBF:
		offset = t.Deadline[task.HI] - t.Deadline[task.LO]
	case KindADB:
		offset = period - t.Deadline[task.LO]
	default:
		panic(fmt.Errorf("dbf: unknown kind %d", kind))
	}
	return offset, period, true
}

// RightSlope returns the slope of the task's curve on the open segment
// immediately to the right of Δ: 1 while the carry-over ramp is active,
// 0 otherwise. Both curves of a task share their slope structure.
func RightSlope(t *task.Task, kind Kind, delta task.Time) task.Time {
	offset, period, ok := windowOffset(t, kind)
	if !ok {
		return 0
	}
	phase := delta % period
	end := offset + t.WCET[task.LO]
	if end > period {
		end = period
	}
	if phase >= offset && phase < end {
		return 1
	}
	return 0
}

// NextEvent returns the smallest event position strictly greater than
// delta at which the task's curve may change slope or jump: the period
// multiples kT, the ramp starts kT + offset, and the ramp ends
// kT + offset + C(LO) (clipped to the period). ok is false when the curve
// has no events (terminated task).
func NextEvent(t *task.Task, kind Kind, delta task.Time) (next task.Time, ok bool) {
	offset, period, ok := windowOffset(t, kind)
	if !ok {
		return 0, false
	}
	base := (delta / period) * period
	end := offset + t.WCET[task.LO]
	if end > period {
		end = period
	}
	// Candidate events within [base, base+2T) in increasing order.
	for _, cand := range [...]task.Time{
		base + offset, base + end, base + period,
		base + period + offset, base + period + end, base + 2*period,
	} {
		if cand > delta {
			return cand, true
		}
	}
	// Unreachable: base+2T > delta always.
	panic("dbf: NextEvent found no candidate")
}

// TaskSigma returns the per-task supremum
//
//	σ_i = sup_{Δ > 0} DBF_HI(τ_i, Δ)/Δ,
//
// the smallest slope of a line through the origin dominating the task's
// HI-mode demand curve. By the exact periodicity
// DBF_HI(Δ+T) = DBF_HI(Δ)+C(HI), the supremum equals
//
//	max{ U_i(HI), (C(HI)−C(LO))/gap, C(HI)/min(gap+C(LO), T(HI)) }
//
// where gap = D(HI)−D(LO) is the carry-over window offset: the three
// candidates are the ratio limit Δ→∞, the jump at the ramp start, and the
// ramp end (clipped to the period). A zero gap with C(HI) > C(LO) yields
// +Inf — the paper's observation that HI tasks whose deadlines are not
// shortened in LO mode force infinite speedup. Terminated tasks have
// σ_i = 0. SigmaSum folds it into the Lemma-6 sum.
func TaskSigma(t *task.Task) rat.Rat {
	if t.Terminated() {
		return rat.Zero
	}
	period := t.Period[task.HI]
	cLO, cHI := t.WCET[task.LO], t.WCET[task.HI]
	gap := t.Deadline[task.HI] - t.Deadline[task.LO]

	sigma := rat.New(int64(cHI), int64(period)) // U_i(HI)
	if gap == 0 {
		if cHI > cLO {
			return rat.PosInf
		}
	} else {
		sigma = rat.Max(sigma, rat.New(int64(cHI-cLO), int64(gap)))
	}
	rampEnd := gap + cLO
	if rampEnd > period {
		rampEnd = period
	}
	if rampEnd > 0 {
		sigma = rat.Max(sigma, rat.New(int64(cHI), int64(rampEnd)))
	}
	return sigma
}

// SetNextEvent returns the smallest event position strictly greater than
// delta across all tasks in the set, or ok=false if no task has events.
func SetNextEvent(s task.Set, kind Kind, delta task.Time) (next task.Time, ok bool) {
	for i := range s {
		if e, has := NextEvent(&s[i], kind, delta); has && (!ok || e < next) {
			next, ok = e, true
		}
	}
	return next, ok
}

// SetHIMode returns Σ_i DBF_HI(τ_i, Δ).
func SetHIMode(s task.Set, delta task.Time) task.Time {
	var sum task.Time
	for i := range s {
		sum += HIMode(&s[i], delta)
	}
	return sum
}

// SetADB returns Σ_i ADB_HI(τ_i, Δ).
func SetADB(s task.Set, delta task.Time) task.Time {
	var sum task.Time
	for i := range s {
		sum += ADB(&s[i], delta)
	}
	return sum
}

// SetLOMode returns Σ_i DBF_LO(τ_i, Δ).
func SetLOMode(s task.Set, delta task.Time) task.Time {
	var sum task.Time
	for i := range s {
		sum += LOMode(&s[i], delta)
	}
	return sum
}

// SetRightSlope returns the summed right-slope of the set's curve at Δ.
func SetRightSlope(s task.Set, kind Kind, delta task.Time) task.Time {
	var sum task.Time
	for i := range s {
		sum += RightSlope(&s[i], kind, delta)
	}
	return sum
}
