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
// layout the design searches and the delta re-walks fan out over.
//
// The columns are deliberately unexported. Everything outside this
// package goes through Compile*/TaskValue/Value/BulkEval, so a plan can
// never disagree with the set it was compiled from unless the caller
// mutates the set afterwards — which the compile-per-walk discipline in
// internal/core (enforced by the plancheck analyzer) rules out.

import (
	"fmt"

	"mcspeedup/internal/task"
)

// Plan is a task set's HI-mode demand curve of one Kind, lowered to
// struct-of-arrays int64 columns. Row i describes s[i]; a zero period
// encodes a terminated task (constant curve, no events). The zero value
// is empty; (re)fill it with Compile or CompileSubset. Plans are cheap to
// compile — O(n) with no allocation once the columns have grown — and are
// recompiled per walk rather than cached across set mutations.
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
		p.compileRow(i, &s[i])
	}
}

// CompileSubset fills the plan with the rows of s selected by idx (in
// idx order): row j of the plan describes s[idx[j]]. The delta re-walks
// use this to evaluate only the edited tasks' demand columns.
func (p *Plan) CompileSubset(s task.Set, idx []int, kind Kind) {
	p.grow(len(idx), kind)
	for j, i := range idx {
		p.compileRow(j, &s[i])
	}
}

func (p *Plan) grow(n int, kind Kind) {
	p.kind, p.n = kind, n
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
// same offsets HIMode/ADB/RightSlope/NextEvent derive per call.
func (p *Plan) compileRow(i int, t *task.Task) {
	cHI := t.WCET[task.HI]
	if t.Terminated() {
		p.period[i] = 0
		p.inv[i] = 0
		p.add[i] = 0
		if p.kind == KindADB {
			p.add[i] = cHI // the carry-over job's residual demand
		}
		return
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
}

// divFloorMax bounds the intervals divFloor handles on its multiply path:
// below 2^51 the float64 quotient guess is within one of floor(Δ/T) (the
// relative error of one rounded multiply is < 2^-52, so the absolute
// error stays under 1), and the two fixup steps make it exact. Larger
// intervals — beyond every walk horizon, but reachable through the
// exported dbf API — fall back to the hardware division.
const divFloorMax = task.Time(1) << 51

// divFloor returns Δ/period exactly, replacing the hardware division
// with a float64 reciprocal multiply plus an integer fixup. The walks
// evaluate every task at every examined event, so this single division
// dominates the per-event cost on the columnar fast path.
func divFloor(delta, period task.Time, inv float64) task.Time {
	if delta >= divFloorMax {
		return delta / period
	}
	q := task.Time(float64(delta) * inv)
	for q > 0 && q*period > delta {
		q--
	}
	for (q+1)*period <= delta {
		q++
	}
	return q
}

// Len returns the number of compiled rows.
func (p *Plan) Len() int { return p.n }

// Kind returns the curve kind the plan was compiled for.
func (p *Plan) Kind() Kind { return p.kind }

// TaskValue returns row i's curve value at Δ — identical to
// HIMode/ADB on the compiled task, via the precompiled columns.
func (p *Plan) TaskValue(i int, delta task.Time) task.Time {
	if delta < 0 {
		panic(fmt.Errorf("%w %d", ErrNegativeInterval, delta))
	}
	period := p.period[i]
	if period == 0 {
		return p.add[i]
	}
	q := divFloor(delta, period, p.inv[i])
	v := q*p.cHI[i] + p.add[i]
	if w := delta - q*period - p.off[i]; w >= 0 {
		if w > p.cLO[i] {
			w = p.cLO[i]
		}
		v += w + p.dC[i]
	}
	return v
}

// TaskStep returns row i's value, right slope, and next event at Δ in a
// single call — exactly TaskValue, RightSlope, and NextEvent on the
// compiled task, sharing one phase decomposition instead of paying one
// division each. The candidate event order matches NextEvent exactly.
// The walkers use it everywhere a task is (re)positioned: at reset, after
// a fired event, and on bulk skips.
func (p *Plan) TaskStep(i int, delta task.Time) (v, slope, next task.Time, ok bool) {
	period := p.period[i]
	if period == 0 {
		return p.add[i], 0, 0, false
	}
	q := divFloor(delta, period, p.inv[i])
	base := q * period
	phase := delta - base
	off, end := p.off[i], p.end[i]
	v = q*p.cHI[i] + p.add[i]
	if w := phase - off; w >= 0 {
		if w > p.cLO[i] {
			w = p.cLO[i]
		}
		v += w + p.dC[i]
	}
	if phase >= off && phase < end {
		slope = 1
	}
	for k := 0; k < 2; k++ {
		if c := base + off; c > delta {
			return v, slope, c, true
		}
		if c := base + end; c > delta {
			return v, slope, c, true
		}
		base += period
		if c := base; c > delta {
			return v, slope, c, true
		}
	}
	// Unreachable: base+2T > delta always.
	panic("dbf: TaskStep found no candidate")
}

// TaskValueFrom returns row i's value at target given its value at from
// (from ≤ target), using the exact periodicity curve(Δ+kT) = curve(Δ) +
// k·C(HI) when the jump is a whole number of periods (each extra period
// contributes exactly one full job) and direct evaluation otherwise.
func (p *Plan) TaskValueFrom(i int, fromVal, from, target task.Time) task.Time {
	period := p.period[i]
	if period == 0 {
		return fromVal // constant curve
	}
	if d := target - from; d%period == 0 {
		return fromVal + (d/period)*p.cHI[i]
	}
	return p.TaskValue(i, target)
}

// Value returns the summed curve at Δ: exactly SetValue(s, kind, Δ) for
// the compiled rows, via one pass over the columns.
func (p *Plan) Value(delta task.Time) task.Time {
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
			continue
		}
		q := divFloor(delta, T, inv[i])
		sum += q*cHI[i] + add[i]
		if w := delta - q*T - off[i]; w >= 0 {
			if w > cLO[i] {
				w = cLO[i]
			}
			sum += w + dC[i]
		}
	}
	return sum
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
			q := divFloor(delta, T, inv[i])
			sum += q*cHI[i] + add[i]
			if w := delta - q*T - off[i]; w >= 0 {
				if w > cLO[i] {
					w = cLO[i]
				}
				sum += w + dC[i]
			}
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
		off, end0 := p.off[i], p.cLO[i]
		cHI, dC, add := p.cHI[i], p.dC[i], p.add[i]
		inv := p.inv[i]
		for j, d := range deltas {
			q := divFloor(d, period, inv)
			v := q*cHI + add
			if w := d - q*period - off; w >= 0 {
				if w > end0 {
					w = end0
				}
				v += w + dC
			}
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

// PointMemo caches the per-task curve values of one (kind, Δ) probe
// point across a stream of closely related task sets — the design
// searches' cross-candidate memo. Each task's cached column entry is
// keyed by the task's full parameter tuple, so a re-probe recomputes only
// the tasks whose parameters changed since the previous call (O(changed)
// instead of O(n)) and the running sum stays exact. A kind, Δ, or set
// size change rebuilds the cache wholesale. The zero value is ready to
// use; a PointMemo must not be shared between concurrent goroutines.
type PointMemo struct {
	kind  Kind
	delta task.Time
	keys  []task.Task
	vals  []task.Time
	sum   task.Time
	valid bool
}

// Invalidate drops the cached point so the next Value rebuilds.
func (m *PointMemo) Invalidate() { m.valid = false }

// Value returns SetValue(s, kind, delta) exactly, recomputing only the
// tasks whose parameters differ from the previous call's snapshot.
func (m *PointMemo) Value(s task.Set, kind Kind, delta task.Time) task.Time {
	if !m.valid || m.kind != kind || m.delta != delta || len(s) != len(m.keys) {
		return m.rebuild(s, kind, delta)
	}
	for i := range s {
		if s[i] != m.keys[i] {
			v := taskValue(&s[i], kind, delta)
			m.sum += v - m.vals[i]
			m.vals[i] = v
			m.keys[i] = s[i]
		}
	}
	return m.sum
}

func (m *PointMemo) rebuild(s task.Set, kind Kind, delta task.Time) task.Time {
	n := len(s)
	if cap(m.keys) < n {
		m.keys = make([]task.Task, n)
		m.vals = make([]task.Time, n)
	}
	m.keys, m.vals = m.keys[:n], m.vals[:n]
	m.kind, m.delta, m.sum = kind, delta, 0
	for i := range s {
		v := taskValue(&s[i], kind, delta)
		m.keys[i] = s[i]
		m.vals[i] = v
		m.sum += v
	}
	m.valid = true
	return m.sum
}

// taskValue is the scalar per-task evaluation of one curve kind.
func taskValue(t *task.Task, kind Kind, delta task.Time) task.Time {
	if kind == KindDBF {
		return HIMode(t, delta)
	}
	return ADB(t, delta)
}
