package core

import (
	"fmt"
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// ResetResult reports the outcome of the Corollary-5 computation.
type ResetResult struct {
	// Reset is the safe service resetting time Δ_R: the earliest
	// interval length after the mode switch by which the processor is
	// guaranteed to have idled, so the system can return to LO mode and
	// nominal speed. It is rat.PosInf when the HI-mode speed does not
	// exceed the HI-mode utilization (the backlog then never provably
	// drains).
	Reset rat.Rat
	// Events is the number of slope-change events examined one by one.
	// It is never higher — and usually far lower — than the plain walk
	// of eq. (12) that visits every event.
	Events int
	// Jumps is the number of QPA-style bulk skips the walk took (each
	// fast-forwarded the walker past events that provably precede the
	// crossing).
	Jumps int
}

// ResetTime computes the service resetting time of Corollary 5:
//
//	Δ_R = min{ Δ ≥ 0 : Σ_i ADB_HI(τ_i, Δ) ≤ speed·Δ }         (eq. (12))
//
// The summed arrived-demand bound is continuous piecewise linear with
// integer slope between integer events (package dbf), so the minimum is
// found by walking segments: either the condition already holds at a
// segment's left endpoint, or the linear segment crosses the supply line
// speed·Δ at an exactly representable rational point.
//
// Because ADB_HI(τ_i, Δ) > U_i(HI)·Δ for every Δ (each curve counts one
// job beyond the utilization line), speed ≤ U_HI makes the condition
// unsatisfiable and Δ_R = +∞. Conversely, for speed > U_HI the bound
// ADB ≤ U_HI·Δ + 2ΣC(HI) guarantees a crossing no later than
// 2ΣC(HI)/(speed − U_HI), so the walk always terminates.
//
// The walk additionally fast-forwards in the style of Zhang & Burns' QPA
// iteration (see qpaLO): the curve is non-decreasing, so with
// v = ΣADB_HI(pos) the condition fails strictly for every Δ < v/speed —
// supply speed·Δ < v ≤ demand(Δ) — which proves the crossing lies at or
// beyond floor(v/speed). When that target clears the next event the
// walker jumps straight to it instead of popping the intermediate events
// one by one. The returned Reset is bit-identical to the plain
// event-by-event walk: the skipped range contains no crossing, and the
// landing re-enters the same left-endpoint / segment-crossing logic.
//
// The crossing is computed in fixed width and, on int64 overflow (speeds
// a hair above U_HI put it far out on a long, shallow segment), exactly
// in math/big and then rounded up onto the 2^-20 grid: a later Δ is
// still a safe resetting time. A crossing too large even for that grid
// is reported as an error.
func ResetTime(s task.Set, speed rat.Rat) (ResetResult, error) {
	return ResetTimeOpts(s, speed, Options{})
}

// ResetTimeOpts is ResetTime with explicit walk options (Scratch reuse
// for tight loops, event caps).
func ResetTimeOpts(s task.Set, speed rat.Rat, o Options) (ResetResult, error) {
	if err := s.Validate(); err != nil {
		return ResetResult{}, err
	}
	if err := validateSpeed(speed); err != nil {
		return ResetResult{}, err
	}
	// Using the utilization *upper* bound here is conservative: in the
	// (sub-2^-20-wide) window between the bounds, a finite Δ_R is
	// reported as +Inf rather than risking a non-terminating walk.
	_, uHI := s.UtilBounds(task.HI)
	return resetTimeWalk(s, speed, uHI, o)
}

// resetTimeWalk is the shared body of ResetTimeOpts and analyzeState:
// the Corollary-5 crossing walk given the already-derived HI-utilization
// upper bound.
func resetTimeWalk(s task.Set, speed, uHI rat.Rat, o Options) (ResetResult, error) {
	if speed.Cmp(uHI) <= 0 {
		return ResetResult{Reset: rat.PosInf}, nil
	}

	w := o.acquireWalker(s, dbf.KindADB)
	defer o.releaseWalker(w)
	// Honor an explicit event budget; the historical defensive cap (far
	// beyond the analytical termination bound) remains the default so
	// legacy callers keep their behavior.
	budget := o.MaxEvents
	if budget <= 0 {
		budget = 50_000_000
	}
	events, jumps := 0, 0
	for {
		pos, v := w.Pos(), w.Value()
		// v ≤ speed·pos, exactly, without materializing the supply
		// rational (CmpRatio cross-multiplies in 128 bits). pos = 0
		// reduces to v ≤ 0, i.e. v == 0 for the non-negative curve.
		if v == 0 || (pos > 0 && speed.CmpRatio(int64(v), int64(pos)) >= 0) {
			return ResetResult{Reset: rat.FromInt64(int64(pos)), Events: events, Jumps: jumps}, nil
		}
		next, ok := w.PeekNext()
		if !ok {
			// All tasks terminated: ADB is the constant ΣC(HI), so
			// the crossing is at ΣC(HI)/speed.
			cross, err := resetCrossing(v, 0, pos, speed)
			return ResetResult{Reset: cross, Events: events, Jumps: jumps}, err
		}
		// Within (pos, next) the curve is v + m·(Δ − pos); solve
		// v + m·(Δ − pos) ≤ speed·Δ. The segment crosses before the next
		// event iff the left limit there already sits on or below the
		// supply line: leftLimit < speed·next (integer left limit, one
		// exact CmpRatio) — only then is the crossing point materialized
		// as a rational, off the per-event budget.
		mInt := w.Slope()
		if speed.CmpRatio(int64(mInt), 1) > 0 {
			if leftLimit := v + mInt*(next-pos); speed.CmpRatio(int64(leftLimit), int64(next)) > 0 {
				// Δ* > pos is implied by v > speed·pos.
				cross, err := resetCrossing(v, mInt, pos, speed)
				return ResetResult{Reset: cross, Events: events, Jumps: jumps}, err
			}
		}
		// QPA jump: no Δ below v/speed can satisfy the condition (see
		// the function comment), so when floor(v/speed) clears the next
		// event, fast-forward there instead of popping events singly.
		if t0 := task.Time(rat.FloorDiv(int64(v), speed)); t0 > next {
			w.SkipTo(t0)
			jumps++
			continue
		}
		w.Next()
		events++
		// Defensive: the analytical bound guarantees termination well
		// before this.
		if events > budget {
			return ResetResult{}, fmt.Errorf("core: ResetTime walk did not converge (speed %v, U_HI %v)", speed, uHI)
		}
	}
}

// resetCrossing returns Δ* = (v − m·pos)/(speed − m), where the segment
// v + m·(Δ − pos) of the summed ADB curve meets the supply line speed·Δ
// (m = 0 for the constant curve of an all-terminated set); callers
// guarantee speed > m. It tries the int64 rationals first and falls back
// to an exact big.Rat quotient rounded up (see ResetTime).
func resetCrossing(v, m, pos task.Time, speed rat.Rat) (rat.Rat, error) {
	num := int64(v - m*pos)
	if den, ok := speed.AddChecked(rat.FromInt64(int64(-m))); ok {
		if cross, ok := rat.FromInt64(num).MulChecked(den.Inv()); ok {
			return cross, nil
		}
	}
	den := new(big.Rat).Sub(speed.Big(), new(big.Rat).SetInt64(int64(m)))
	exact := new(big.Rat).Quo(new(big.Rat).SetInt64(num), den)
	if cross, ok := rat.FromBigChecked(exact, true); ok {
		return cross, nil
	}
	return rat.Rat{}, fmt.Errorf("core: resetting time %s exceeds the representable range", exact.FloatString(0))
}

// SustainableOverrunGap implements the Remark of Section IV: if bursts of
// overrun are separated by at least tO time units, the speedup episodes
// occur with frequency at most 1/tO provided Δ_R ≤ tO. It reports whether
// that condition holds for the given resetting time.
func SustainableOverrunGap(reset rat.Rat, tO task.Time) bool {
	return reset.Cmp(rat.FromInt64(int64(tO))) <= 0
}
