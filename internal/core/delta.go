package core

import (
	"math"
	"math/bits"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// This file implements the Session's recorded event curve: the structure
// that makes a single-parameter C(HI) re-analysis O(affected events)
// instead of a fresh pseudo-polynomial walk.
//
// The cold analysis records the canonical Theorem-2 event stream — every
// slope-change position of the summed curve up to the hyperperiod
// stopping event, with the summed DBF_HI value at each — and precomputes
// per-block maxima of the demand/length ratio. A C(HI) edit changes only
// the VALUES of that stream, never its positions (per-task events sit at
// k·T, k·T+gap and k·T+gap+C(LO), none of which read C(HI); see
// dbf.NextEvent), so the delta walk re-traverses the recorded positions,
// adding each edited task's exact value difference
//
//	δ_i(Δ) = DBF_HI(τ_i', Δ) − DBF_HI(τ_i, Δ)
//
// in O(1) per edited task per examined event, and skips whole blocks with
// the certificate below. Any other parameter class (C(LO) moves the ramp
// ends, D/T move offsets and periods, add/remove changes the stream
// itself) invalidates the curve.
//
// Recording policy. A recording walks the whole hyperperiod stream (up to
// curveRecordCap events) with no early exit, so it only pays when later
// value-only edits reuse it. The Session therefore records only when a
// C(HI) edit arrives while the curve is invalid (pending), and a stream
// that does not fit the cap (failed) is not retried until an edit moves
// the positions: a D(LO)-only edit stream never records, and a set beyond
// the cap fails once.
//
// Block-skip certificate. For an edited task with dc = C(HI)' − C(HI) and
// HI-mode period T, the closed form of Lemma 1 gives, for every Δ > 0,
//
//	δ_i(Δ)/Δ  ≤  dc/T + |dc|/Δ
//
// (δ_i = dc·floor(Δ/T) + dc·[window open]; bound floor(Δ/T) by Δ/T + the
// sign-matching unit term). Positions are increasing, so over a block
// whose first position is a, every position p ≥ a has
//
//	value'(p)/p ≤ value(p)/p + Σ_i (dc_i/T_i + |dc_i|/a)
//	           ≤ r_max + corr(a),
//
// with r_max the precomputed base-ratio maximum of the block. If
// r_max + corr(a) < bound for a proven lower bound `bound` of the new
// supremum, every event in the block has ratio strictly below the
// supremum: none can be the running maximum or the first event attaining
// it, so the whole block is skipped without touching its events — the
// same strictness argument as the incumbent certificate in speedup.go.
// The inequality itself is tested in float64 with certMargin slack (see
// the constant): a pass implies the exact inequality, a fail examines
// the block event by event, so exactness never rests on float arithmetic.
//
// Rule-1 omission. The canonical walk's early exit (stopping rule 1 in
// minSpeedupWalk) is intentionally NOT checked here: if it fires at some
// event with running maximum `best`, then every later ratio is at most
// uHi + B/Δ ≤ uHi + B/pos ≤ best, with B the tight envelope intercept
// (dbf.Plan.Intercept); the walk records only strict improvements, so
// best and its witness are already final — continuing to the hyperperiod
// event returns the same
// (Speedup, LowerBound, Exact, WitnessDelta) through stopping rule 2's
// best ≥ U_HI branch. Payloads are therefore identical; only the
// Events/Jumps diagnostics differ, which the Report deliberately omits.

const (
	// curveBlock is the block-maximum granularity: small enough that a
	// block containing the supremum costs little to examine event by
	// event, large enough that block certificates dominate.
	curveBlock = 32
	// curveRecordCap bounds the recorded stream (and so the memory per
	// session: two task.Time slices). Sets whose event stream does not
	// reach the hyperperiod event within the cap fall back to the plain
	// warm walk.
	curveRecordCap = 1 << 16
	// certMargin is the relative slack of the float64 block test. The
	// certificate inequality is evaluated in float64 (a handful of ops on
	// inputs ≤ 2^40, so the accumulated relative error is < 10^-14) and a
	// block is skipped only when it holds with this much room — five
	// orders of magnitude beyond the worst-case float error, so a float
	// pass implies the exact inequality. A float fail merely examines the
	// block's events one by one, which is always sound; no exact fallback
	// is needed.
	certMargin = 1e-9
)

// speedupCurve is the recorded canonical event stream of the Theorem-2
// walk plus the bookkeeping for value-only delta re-walks. Owned by a
// Session; all access is serialized by the session's owner.
type speedupCurve struct {
	valid bool
	// pending marks a value-only C(HI) edit since the curve went invalid:
	// the next report records. failed marks a position stream that could
	// not be recorded or served; both clear on a position-moving edit.
	pending, failed bool

	pos  []task.Time // canonical event positions, increasing; last ≥ hyper
	val  []task.Time // Σ DBF_HI at pos, for the base (record-time) set
	base task.Set    // snapshot the values were recorded against

	// blockMaxIdx[b] is the index (into pos/val) of the maximum base
	// ratio val/pos within block b of curveBlock events; computed for
	// full blocks only.
	blockMaxIdx []int

	// edited lists indices (stable across value-only edits) of tasks
	// whose parameters changed since recording, ascending and unique.
	edited []int

	// curPlan/basePlan are the edited tasks' demand columns (current and
	// recorded parameters), compiled per delta walk; blockCur/blockBase
	// hold one block's bulk-evaluated values. Together they evaluate the
	// exact value correction with one column-major BulkEval per examined
	// block. fullPlan is the whole current set's columns, for the seed
	// probes.
	curPlan, basePlan, fullPlan dbf.Plan
	blockCur, blockBase         [curveBlock]task.Time
}

// noteEdit classifies one applied edit's impact on the recorded curve:
// value-only C(HI) changes mark the task for delta evaluation (or, on an
// invalid curve, ask for a recording), anything that can move event
// positions invalidates the recording and clears the recording policy's
// state. T(LO)-only edits are ignored entirely — DBF_HI does not read
// T(LO).
func (c *speedupCurve) noteEdit(tc task.Touched) {
	if tc.Added || tc.Removed || tc.CLO || tc.DLO || tc.DHI || tc.THI {
		c.valid, c.pending, c.failed = false, false, false
		return
	}
	if !tc.CHI {
		return // T(LO)-only or no change: the HI-mode curve is untouched
	}
	if !c.valid {
		c.pending = true
		return
	}
	for _, i := range c.edited {
		if i == tc.Index {
			return
		}
	}
	c.edited = append(c.edited, tc.Index)
}

// compactEdited drops tasks whose current parameters are back at their
// recorded values (an edit stream that reverts a task makes its δ ≡ 0),
// returning the live slice.
func (c *speedupCurve) compactEdited(cur task.Set) []int {
	kept := c.edited[:0]
	for _, i := range c.edited {
		if cur[i] != c.base[i] {
			kept = append(kept, i)
		}
	}
	c.edited = kept
	return kept
}

// ratioGreater reports a/b > x/y for non-negative a, x and positive b, y
// via 128-bit cross multiplication (positions and values fit in 2^40·2^40
// products, beyond int64).
func ratioGreater(a, b, x, y task.Time) bool {
	hi1, lo1 := bits.Mul64(uint64(a), uint64(y))
	hi2, lo2 := bits.Mul64(uint64(x), uint64(b))
	return hi1 > hi2 || (hi1 == hi2 && lo1 > lo2)
}

// record captures the canonical event stream: positions and values from
// an event-by-event walk over s, up to and including the first event at or
// beyond the hyperperiod (stopping rule 2's event). Returns false —
// leaving the curve invalid — when the stream does not terminate within
// curveRecordCap events.
func (c *speedupCurve) record(s task.Set, hyper task.Time, o Options) bool {
	c.valid = false
	c.pos = c.pos[:0]
	c.val = c.val[:0]
	c.edited = c.edited[:0]
	w := o.acquireWalker(s, dbf.KindDBF)
	defer o.releaseWalker(w)
	limit := curveRecordCap
	if m := o.maxEvents(); m < limit {
		limit = m
	}
	for ev := 0; ev < limit; ev++ {
		if !w.Next() {
			return false // no events at all (every task terminated)
		}
		c.pos = append(c.pos, w.Pos())
		c.val = append(c.val, w.Value())
		if w.Pos() >= hyper {
			c.base = append(c.base[:0], s...)
			c.buildBlocks()
			c.valid = true
			return true
		}
	}
	return false
}

// buildBlocks precomputes, for each full block of curveBlock events, the
// index of its maximum base ratio (first attaining index on ties).
func (c *speedupCurve) buildBlocks() {
	n := len(c.pos) / curveBlock
	if cap(c.blockMaxIdx) < n {
		c.blockMaxIdx = make([]int, n)
	}
	c.blockMaxIdx = c.blockMaxIdx[:n]
	for b := 0; b < n; b++ {
		m := b * curveBlock
		for j := m + 1; j < (b+1)*curveBlock; j++ {
			if ratioGreater(c.val[j], c.pos[j], c.val[m], c.pos[m]) {
				m = j
			}
		}
		c.blockMaxIdx[b] = m
	}
}

// corrTerms precomputes the position-independent parts of the block
// certificate correction corr(a) = K + L/a with K = Σ_i dc_i/T_i and
// L = Σ_i |dc_i| over the (non-terminated) edited tasks: one rational
// fold per walk instead of one per block. ok is false when K overflows
// the int64 rationals, in which case the walk examines every event —
// slower, never wrong.
func (c *speedupCurve) corrTerms(cur task.Set, edited []int) (k rat.Rat, l int64, ok bool) {
	k = rat.Zero
	for _, i := range edited {
		t := &cur[i]
		if t.Terminated() {
			continue // δ ≡ 0: DBF_HI of a terminated task is 0 either way
		}
		dc := t.WCET[task.HI] - c.base[i].WCET[task.HI]
		if dc == 0 {
			continue
		}
		k, ok = k.AddChecked(rat.New(int64(dc), int64(t.Period[task.HI])))
		if !ok {
			return rat.Zero, 0, false
		}
		if dc < 0 {
			dc = -dc
		}
		l += int64(dc)
	}
	return k, l, true
}

// walk re-runs the Theorem-2 analysis over the recorded stream with the
// current (value-edited) set: O(1) per examined event, whole blocks
// skipped by the certificate. The payload is bit-identical to the
// canonical walk (see the file comment); ok is false when the curve
// cannot serve the walk (caller falls back to the plain path).
func (c *speedupCurve) walk(st *dbf.SetState, o Options) (SpeedupResult, bool) {
	cur := st.Tasks()
	if len(cur) != len(c.base) {
		return SpeedupResult{}, false // structural drift: never valid here
	}
	uLo, uHi := st.UtilBounds(task.HI)
	hyper, hyperOK := st.HIHyperperiod()
	if !hyperOK || len(c.pos) == 0 || c.pos[len(c.pos)-1] < hyper {
		// Value edits cannot change the hyperperiod, so a valid curve
		// always covers it; be defensive anyway.
		return SpeedupResult{}, false
	}
	if dbf.SetHIMode(cur, 0) > 0 {
		return SpeedupResult{Speedup: rat.PosInf, LowerBound: rat.PosInf, Exact: true}, true
	}
	edited := c.compactEdited(cur)
	corrK, corrL, corrOK := c.corrTerms(cur, edited)
	kF := corrK.Float64()
	kAbsF := math.Abs(kF)
	lF := float64(corrL)

	// Lower the edited tasks' demand columns once per walk: examined
	// blocks are then bulk-evaluated column-major (curve value plus the
	// exact per-position delta curPlan − basePlan) instead of chasing
	// task structs per event.
	c.curPlan.CompileSubset(cur, edited, dbf.KindDBF)
	c.basePlan.CompileSubset(c.base, edited, dbf.KindDBF)
	c.fullPlan.Compile(cur, dbf.KindDBF)
	bufBlock := -1

	// bound is a proven lower bound on the new supremum: the seed probes
	// (which evaluate the CURRENT set) joined with the running maximum.
	// bF is its float64 image, refreshed whenever bound improves; the
	// block test compares against it with certMargin slack, so float
	// rounding in either direction can never skip a block the exact
	// inequality would keep.
	bound := seedBound(&c.fullPlan, o.WarmWitness, hyper, hyperOK)
	bF := bound.Float64()
	var bestV task.Time
	bestP := task.Time(1)
	var witness task.Time
	events, jumps := 0, 0
	n := len(c.pos)
	for j := 0; j < n; {
		if j%curveBlock == 0 && j+curveBlock < n && corrOK && bF > 0 {
			// Full block, not containing the final (rule-2) event.
			mi := c.blockMaxIdx[j/curveBlock]
			rmF := float64(c.val[mi]) / float64(c.pos[mi])
			la := lF / float64(c.pos[j])
			mag := rmF + kAbsF + la + bF // ≥ |each term|, scales the slack
			if rmF+kF+la+certMargin*mag < bF {
				j += curveBlock
				jumps++
				continue
			}
		}
		p := c.pos[j]
		var dv task.Time
		if len(edited) > 0 {
			if blk := j / curveBlock; blk != bufBlock {
				lo := blk * curveBlock
				hi := lo + curveBlock
				if hi > n {
					hi = n
				}
				c.curPlan.BulkEval(c.blockCur[:hi-lo], c.pos[lo:hi])
				c.basePlan.BulkEval(c.blockBase[:hi-lo], c.pos[lo:hi])
				bufBlock = blk
			}
			r := j - bufBlock*curveBlock
			dv = c.blockCur[r] - c.blockBase[r]
		}
		v := c.val[j] + dv
		events++
		if events > o.maxEvents() {
			return SpeedupResult{}, false // let the canonical path report the cap
		}
		if ratioGreater(v, p, bestV, bestP) {
			bestV, bestP, witness = v, p, p
			if r := rat.New(int64(v), int64(p)); r.Cmp(bound) > 0 {
				bound = r
				bF = bound.Float64()
			}
		}
		if p >= hyper {
			best := rat.New(int64(bestV), int64(bestP))
			if best.Cmp(uHi) >= 0 {
				return SpeedupResult{
					Speedup: best, LowerBound: best, Exact: true,
					WitnessDelta: witness, Events: events, Jumps: jumps,
				}, true
			}
			if uLo.Eq(uHi) {
				return SpeedupResult{
					Speedup: uHi, LowerBound: uHi, Exact: true,
					WitnessDelta: 0, Events: events, Jumps: jumps,
				}, true
			}
			return SpeedupResult{
				Speedup: uHi, LowerBound: rat.Max(best, uLo), Exact: false,
				WitnessDelta: 0, Events: events, Jumps: jumps,
			}, true
		}
		j++
	}
	return SpeedupResult{}, false // unreachable for a valid curve
}
