package rat

import "math"

// Ticks is the exact integer grid of one simulation run whose processor
// speed steps between 1 and a rational speedup s = p/q, with an optional
// rational episode budget b = bn/bd (bd = 1 without one). Every instant
// and every amount of executed work the run can produce is an integer
// multiple of the grid's tick, so the event loop needs only int64 add,
// subtract and compare:
//
//   - LO mode runs at speed 1 from an integer arrival with integer
//     demands and deadlines, so one tick is one time unit and one unit
//     of work.
//   - HI mode starts at an integer instant. Time ticks are 1/(p·bd) and
//     work ticks 1/(q·bd): running dt time ticks at speed p/q does
//     exactly dt work ticks, and the budget is the integer bn·p time
//     ticks.
//   - After a budget trip the speed is 1 again. Time and work ticks are
//     both 1/(bd·p·q), p·q being lcm(p, q) for a fraction in lowest
//     terms: HI time ticks scale by q and HI work ticks by p.
//
// A run converts ticks back to a Rat only when it writes a result, as
// New(ticks, unit), so results carry the same normalized values as an
// all-rational computation.
type Ticks struct {
	// HITime and HIWork are the HI-mode time and work ticks per unit:
	// p·bd and q·bd.
	HITime, HIWork int64
	// Budget is the episode budget in HI time ticks (bn·p), 0 without a
	// budget, and math.MaxInt64 when it lies beyond every instant the
	// grid can hold (the budget then never trips on a run that Fits).
	Budget int64
	// TripTime and TripWork rescale HI time and work ticks to the
	// post-trip grid: q and p.
	TripTime, TripWork int64

	slow int64 // max(1, ⌈q/p⌉): time per unit of work at worst
	max  int64 // the finest time unit the run can reach
}

// NewTicks derives the grid of a run at the given speedup and budget.
// speed must be positive and finite. A budget that is not positive and
// finite means no budget. It reports false when a unit itself does not
// fit in int64.
func NewTicks(speed, budget Rat) (Ticks, bool) {
	p, q := speed.num, speed.den
	t := Ticks{TripTime: q, TripWork: p, slow: 1}
	if q > p {
		t.slow = q / p
		if q%p != 0 {
			t.slow++
		}
	}
	bn, bd := int64(0), int64(1)
	if budget.Sign() > 0 && !budget.IsInf() {
		bn, bd = budget.num, budget.den
	}
	var ok1, ok2 bool
	t.HITime, ok1 = tryMul64(p, bd)
	t.HIWork, ok2 = tryMul64(q, bd)
	if !ok1 || !ok2 {
		return Ticks{}, false
	}
	t.max = t.HITime
	if bn > 0 {
		var ok bool
		if t.max, ok = tryMul64(t.HITime, q); !ok {
			return Ticks{}, false
		}
		if t.Budget, ok = tryMul64(bn, p); !ok {
			t.Budget = math.MaxInt64
		}
	}
	return t, true
}

// Fits reports whether a run fits the grid. The run releases its last
// job at lastArrival, releases work units of demand in total, and no
// relative deadline exceeds deadline; all three must be non-negative.
// The processor is busy whenever work is pending, so no instant, work
// amount or deadline of the run exceeds lastArrival + work·⌈q/p⌉ +
// deadline time units. Fits checks that this span, in the finest unit
// the run can reach, stays below math.MaxInt64, which the loop reserves
// as its "never" sentinel.
func (t Ticks) Fits(lastArrival, work, deadline int64) bool {
	span, ok := tryMul64(work, t.slow)
	if ok {
		span, ok = tryAdd64(span, lastArrival)
	}
	if ok {
		span, ok = tryAdd64(span, deadline)
	}
	if ok {
		span, ok = tryMul64(span, t.max)
	}
	return ok && span < math.MaxInt64
}
