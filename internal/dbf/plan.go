package dbf

// This file implements the compiled columnar demand plan: the struct-of-
// arrays lowering of a task set's HI-mode demand curves that the core
// walkers evaluate instead of chasing task structs per event.
//
// HIMode and ADB are tiny closed forms, but the scalar entry points force
// every evaluation to re-derive the carry-over geometry (window offset,
// ramp end, per-kind dispatch) from five task-struct fields behind a
// pointer. Compiling once per walk moves all of that into flat int64
// columns indexed by task position: an evaluation is then a handful of
// arithmetic ops over sequential memory, and a batch of evaluations
// (BulkEval) walks each column exactly once per task — the cache-friendly
// layout the event walks and the design searches fan out over.
//
// The columns are deliberately unexported. Everything outside this
// package goes through Compile*/Value/BulkEval, so a plan can
// never disagree with the set it was compiled from unless the caller
// mutates the set afterwards — which the compile-per-walk discipline in
// internal/core (enforced by the plancheck analyzer) rules out.

import (
	"fmt"
	"math"
	"math/bits"

	"mcspeedup/internal/task"
)

// Plan is a task set's HI-mode demand curve of one Kind, lowered to
// struct-of-arrays int64 columns. Row i describes s[i]; a zero period
// encodes a terminated task (constant curve, no events). The zero value
// is empty; (re)fill it with Compile. Plans are cheap to compile — O(n)
// with no allocation once the columns have grown — and are recompiled
// per walk rather than cached across set mutations.
type Plan struct {
	kind Kind
	n    int

	period []task.Time // T(HI); 0 ⇒ terminated (constant curve)
	off    []task.Time // carry-over ramp start phase within [0, T)
	end    []task.Time // ramp end phase: min(off + C(LO), T)
	cLO    []task.Time // C(LO): the ramp's height cap
	cHI    []task.Time // C(HI): the per-period increment
	dC     []task.Time // C(HI) − C(LO): the carry-over surplus
	add    []task.Time // per-evaluation constant: C(HI) for KindADB, else 0
	inv    []float64   // 1/float64(period): the divFloor reciprocal

	intercept task.Time // Σ_i (add_i + ⌈C_i(HI)·(T_i − end_i)/T_i⌉); see Intercept
}

// CompilePlan lowers s's curves of the given kind into a fresh plan.
func CompilePlan(s task.Set, kind Kind) *Plan {
	p := new(Plan)
	p.Compile(s, kind)
	return p
}

// Compile (re)fills the plan from s, reusing the column storage. After
// the first compile at a given size it performs no allocation.
func (p *Plan) Compile(s task.Set, kind Kind) {
	p.grow(len(s), kind)
	for i := range s {
		p.intercept += p.compileRow(i, &s[i])
	}
}

func (p *Plan) grow(n int, kind Kind) {
	p.kind, p.n, p.intercept = kind, n, 0
	p.period = sizedCol(p.period, n)
	p.off = sizedCol(p.off, n)
	p.end = sizedCol(p.end, n)
	p.cLO = sizedCol(p.cLO, n)
	p.cHI = sizedCol(p.cHI, n)
	p.dC = sizedCol(p.dC, n)
	p.add = sizedCol(p.add, n)
	if cap(p.inv) < n {
		p.inv = make([]float64, n)
	}
	p.inv = p.inv[:n]
}

func sizedCol(buf []task.Time, n int) []task.Time {
	if cap(buf) < n {
		return make([]task.Time, n)
	}
	return buf[:n]
}

// compileRow lowers one task with exactly windowOffset's geometry: the
// same offsets HIMode/ADB/RightSlope/NextEvent derive per call. It
// returns the row's envelope intercept (see Intercept).
func (p *Plan) compileRow(i int, t *task.Task) task.Time {
	cHI := t.WCET[task.HI]
	if t.Terminated() {
		p.period[i] = 0
		p.inv[i] = 0
		p.add[i] = 0
		if p.kind == KindADB {
			p.add[i] = cHI // the carry-over job's residual demand
		}
		return p.add[i]
	}
	period := t.Period[task.HI]
	cLO := t.WCET[task.LO]
	var off, add task.Time
	switch p.kind {
	case KindDBF:
		off = t.Deadline[task.HI] - t.Deadline[task.LO]
	case KindADB:
		off = period - t.Deadline[task.LO]
		add = cHI // ADB counts floor(Δ/T)+1 arrivals
	default:
		panic(fmt.Errorf("dbf: unknown kind %d", p.kind))
	}
	end := off + cLO
	if end > period {
		end = period
	}
	p.period[i] = period
	p.off[i] = off
	p.end[i] = end
	p.cLO[i] = cLO
	p.cHI[i] = cHI
	p.dC[i] = cHI - cLO
	p.add[i] = add
	p.inv[i] = 1 / float64(period)
	return add + ceilMulDiv(cHI, period-end, period)
}

// ceilMulDiv returns ⌈a·b/d⌉ for non-negative a, b and 0 ≤ b ≤ d, d > 0.
// The product is carried in 128 bits (C(HI)·(T − end) can pass 2^63);
// b ≤ d keeps the quotient at most a.
func ceilMulDiv(a, b, d task.Time) task.Time {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, r := bits.Div64(hi, lo, uint64(d))
	if r != 0 {
		q++
	}
	return task.Time(q)
}

// Intercept returns the intercept B of the tight linear envelope of the
// summed curve: Value(Δ) ≤ U·Δ + B for every Δ ≥ 0, where U = Σ C(HI)/T
// over the active rows (the HI-mode utilization of the compiled set) and
//
//	B = Σ_i add_i + Σ_active ⌈C_i(HI)·(T_i − end_i)/T_i⌉ ,
//
// with end_i the row's ramp end min(off_i + C_i(LO), T_i) (for KindDBF,
// off_i = D(HI) − D(LO) and add_i = 0, so B sums over active rows only).
//
// Proof, per active row: within each period the row's curve is
// q·C(HI) + add at phase 0, flat until off, steps up by C(HI) − C(LO)
// at off, rises with slope 1 until end and stays flat to the next
// period, so curve(Δ) − U_i·Δ is periodic, falls with slope −U_i on
// the flat stretches and rises with slope 1 − U_i ≥ 0 on the ramp
// (C(HI) ≤ T for a valid task). Its maximum is therefore at a ramp end
// or at phase 0. At an unclipped ramp
// end (end = off + C(LO)) the curve has reached (q+1)·C(HI) + add, so
// the difference is add + C(HI)·(T − end)/T; at phase 0 it is add,
// which the same formula also bounds; and a clipped ramp (end = T) ends
// below (q+1)·C(HI) + add, at a difference below add. Terminated rows
// are the constant add. Summing the rows gives the bound; rounding each
// term up keeps it integral. It is tight up to the ceilings: every
// unclipped row attains its term at its ramp ends. The loose envelope
// U·Δ + Σ(add + C(HI)) this replaces is the special case end = 0.
func (p *Plan) Intercept() task.Time { return p.intercept }

// divFloorMax bounds the intervals divFloor handles on its multiply path:
// below 2^51 the float64 quotient guess is within one of floor(Δ/T) (the
// rounded reciprocal and the rounded product each carry a relative error
// below 2^-53, so the absolute error stays under 2^51·2^-52 = 1/2 and the
// truncated guess misses by at most one), and one remainder fix-up makes
// it exact. Larger intervals — beyond every walk horizon, but reachable
// through the exported dbf API — fall back to the hardware division.
const divFloorMax = task.Time(1) << 51

// divFloor returns Δ/period exactly, replacing the hardware division
// with a float64 reciprocal multiply plus one integer fix-up of the
// remainder r = Δ − q·T: a guess one too high leaves r < 0, so r>>63 is
// −1; one too low leaves r ≥ T, so (T−1−r)>>63 is −1; the two sign
// shifts correct q without a branch. The walks evaluate every task at
// every examined event, so this single division dominates the per-event
// cost on the columnar fast path.
func divFloor(delta, period task.Time, inv float64) task.Time {
	if delta >= divFloorMax {
		return delta / period
	}
	q := task.Time(float64(delta) * inv)
	r := delta - q*period
	return q + r>>63 - (period-1-r)>>63
}

// rowAt is the row kernel every plan evaluator shares: an active row's
// (period > 0) phase Δ − ⌊Δ/T⌋·T within its period and its curve value
//
//	⌊Δ/T⌋·C(HI) + add + ramp(w),  w = phase − off,
//	ramp(w) = min(w, C(LO)) + C(HI) − C(LO) for w ≥ 0, 0 for w < 0,
//
// which is HIMode (KindDBF) or ADB (KindADB) on the compiled task. The
// ramp term is branch-free: m = min(w, C(LO)) is negative exactly when w
// is (C(LO) ≥ 0), m>>63 is then all ones, and &^ clears the term. rowAt
// is small enough to inline into every caller (go build -gcflags=-m
// ./internal/dbf reports it; the budget is 80 and rowAt costs 80).
func rowAt(delta, period task.Time, inv float64, off, cLO, cHI, dC, add task.Time) (phase, v task.Time) {
	q := divFloor(delta, period, inv)
	phase = delta - q*period
	m := min(phase-off, cLO)
	return phase, q*cHI + add + (m+dC)&^(m>>63)
}

// Len returns the number of compiled rows.
func (p *Plan) Len() int { return p.n }

// Kind returns the curve kind the plan was compiled for.
func (p *Plan) Kind() Kind { return p.kind }

// TaskStep returns row i's value, right slope, and next event at Δ in a
// single call — exactly HIMode or ADB, RightSlope, and NextEvent on the
// compiled task, sharing one phase decomposition instead of paying one
// division each. Within a period the row's events are the ramp start
// off, the ramp end end ≥ off and the next period start, so the phase
// alone picks the next one; the ramp [off, end) is where the slope is 1.
// The walkers use it everywhere a task is (re)positioned: at reset, after
// a fired event, and on bulk skips.
func (p *Plan) TaskStep(i int, delta task.Time) (v, slope, next task.Time, ok bool) {
	period := p.period[i]
	if period == 0 {
		return p.add[i], 0, 0, false
	}
	off, end := p.off[i], p.end[i]
	phase, v := rowAt(delta, period, p.inv[i], off, p.cLO[i], p.cHI[i], p.dC[i], p.add[i])
	base := delta - phase
	switch {
	case phase < off:
		return v, 0, base + off, true
	case phase < end:
		return v, 1, base + end, true
	default:
		return v, 0, base + period, true
	}
}

// Value returns the summed curve at Δ — exactly SetHIMode (KindDBF) or
// SetADB (KindADB) over the compiled rows — via one pass over the
// columns.
func (p *Plan) Value(delta task.Time) task.Time {
	v, _ := p.ValueCapped(delta, math.MaxInt64)
	return v
}

// ValueCapped evaluates the summed curve at Δ against a limit: it returns
// (Value(Δ), true) when the sum stays at or below limit, and (partial,
// false) the moment the running sum exceeds it. Per-row contributions are
// non-negative, so an early exit proves Value(Δ) > limit without touching
// the remaining rows — the shape of the walks' skip-certificate probes,
// most of which fail.
func (p *Plan) ValueCapped(delta, limit task.Time) (task.Time, bool) {
	if delta < 0 {
		panic(fmt.Errorf("%w %d", ErrNegativeInterval, delta))
	}
	var sum task.Time
	n := p.n
	period, inv := p.period[:n], p.inv[:n]
	off, cLO := p.off[:n], p.cLO[:n]
	cHI, dC, add := p.cHI[:n], p.dC[:n], p.add[:n]
	for i, T := range period {
		if T == 0 {
			sum += add[i]
		} else {
			_, v := rowAt(delta, T, inv[i], off[i], cLO[i], cHI[i], dC[i], add[i])
			sum += v
		}
		if sum > limit {
			return sum, false
		}
	}
	return sum, true
}

// BulkEval computes the summed curve at every position in deltas, storing
// Value(deltas[j]) into dst[j] (which must be at least as long as
// deltas). The loop is column-major — outer over tasks, inner over
// positions — so each task's row is loaded once per batch regardless of
// the batch size. It returns dst[:len(deltas)].
func (p *Plan) BulkEval(dst, deltas []task.Time) []task.Time {
	dst = dst[:len(deltas)]
	var base task.Time // Σ add over terminated rows: position-independent
	for j, d := range deltas {
		if d < 0 {
			panic(fmt.Errorf("%w %d", ErrNegativeInterval, d))
		}
		dst[j] = 0
	}
	for i := 0; i < p.n; i++ {
		period := p.period[i]
		if period == 0 {
			base += p.add[i]
			continue
		}
		inv, off, cLO := p.inv[i], p.off[i], p.cLO[i]
		cHI, dC, add := p.cHI[i], p.dC[i], p.add[i]
		for j, d := range deltas {
			_, v := rowAt(d, period, inv, off, cLO, cHI, dC, add)
			dst[j] += v
		}
	}
	if base != 0 {
		for j := range dst {
			dst[j] += base
		}
	}
	return dst
}
