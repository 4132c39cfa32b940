package core

import (
	"math/big"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// This file implements QPA — Quick Processor-demand Analysis (Zhang &
// Burns, IEEE TC 2009) — as the production LO-mode EDF test behind
// SchedulableLO. Instead of checking the processor demand criterion at
// every absolute deadline up to the horizon L (the demandWalkLO below),
// QPA iterates t ← h(t) (or the largest deadline below t) downward from
// the last deadline before L, visiting only a tiny fraction of the
// testing points. Both implementations are exact for U < 1; the walk is
// kept as a differential-testing oracle and fallback.

// demandLO returns h(t) = Σ_i DBF_LO(τ_i, t).
func demandLO(s task.Set, t task.Time) task.Time {
	var sum task.Time
	for i := range s {
		d, p, c := s[i].Deadline[task.LO], s[i].Period[task.LO], s[i].WCET[task.LO]
		if t >= d {
			sum += ((t-d)/p + 1) * c
		}
	}
	return sum
}

// maxDeadlineBelow returns the largest absolute LO-mode deadline strictly
// below t, with ok=false when none exists.
func maxDeadlineBelow(s task.Set, t task.Time) (task.Time, bool) {
	var best task.Time
	found := false
	for i := range s {
		d, p := s[i].Deadline[task.LO], s[i].Period[task.LO]
		if t <= d {
			continue
		}
		k := (t - d - 1) / p
		cand := k*p + d
		if !found || cand > best {
			best, found = cand, true
		}
	}
	return best, found
}

// minDeadline returns the smallest relative LO-mode deadline.
func minDeadline(s task.Set) task.Time {
	m := task.Unbounded
	for i := range s {
		if d := s[i].Deadline[task.LO]; d < m {
			m = d
		}
	}
	return m
}

// qpaLO runs the QPA iteration over (0, limit]. Preconditions: the set is
// valid and U(LO) < 1 (callers handle U ≥ 1 separately).
func qpaLO(s task.Set, limit int64) bool {
	t, ok := maxDeadlineBelow(s, task.Time(limit)+1)
	if !ok {
		return true // no deadline within the horizon: nothing to check
	}
	dMin := minDeadline(s)
	for {
		h := demandLO(s, t)
		switch {
		case h > t:
			return false
		case h <= dMin:
			return true
		case h < t:
			t = h
		default: // h == t: skip to the previous deadline
			prev, ok := maxDeadlineBelow(s, t)
			if !ok {
				return true
			}
			t = prev
		}
	}
}

// demandWalkLO is the straightforward processor-demand walk over every
// testing point (the pre-QPA implementation), kept as the differential
// oracle for qpaLO.
func demandWalkLO(s task.Set, limit int64) bool {
	var h eventHeap
	for i := range s {
		h.push(s[i].Deadline[task.LO], i)
	}
	var demand task.Time
	for h.Len() > 0 {
		next := h.times[0]
		if int64(next) > limit {
			return true
		}
		for h.Len() > 0 && h.times[0] == next {
			_, i := h.pop()
			demand += s[i].WCET[task.LO]
			h.push(next+s[i].Period[task.LO], i)
		}
		if demand > next {
			return false
		}
	}
	return true
}

// loHorizon computes the pseudo-polynomial PDC horizon
// max(max_i D_i(LO), ⌈Σ_i (T_i−D_i)·U_i/(1−U)⌉) exactly from the horizon
// numerator and U. Precondition: U < 1.
func loHorizon(s task.Set, sum, u rat.Sum) int64 {
	return atLeastDeadlines(s, horizonQuotient(sum, u))
}

// atLeastDeadlines returns max(h, max_i D_i(LO)).
func atLeastDeadlines(s task.Set, h int64) int64 {
	for i := range s {
		if d := int64(s[i].Deadline[task.LO]); d > h {
			h = d
		}
	}
	return h
}

// horizonQuotient returns ⌈sum/(1−U)⌉, the demand part of the PDC
// horizon. Precondition: U < 1. The quotient is exact: in fixed width
// when it fits, in big.Rat otherwise.
func horizonQuotient(sum, u rat.Sum) int64 {
	if sv, ok := sum.Rat(); ok {
		if uv, ok := u.Rat(); ok {
			// 1 − U cannot overflow for 0 ≤ U < 1.
			if h, ok := sv.MulChecked(rat.One.Sub(uv).Inv()); ok {
				return h.Ceil()
			}
		}
	}
	return ceilBig(new(big.Rat).Quo(sum.Big(), new(big.Rat).Sub(big.NewRat(1, 1), u.Big())))
}
