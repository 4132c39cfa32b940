package core

import (
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// This file implements QPA — Quick Processor-demand Analysis (Zhang &
// Burns, IEEE TC 2009) — as the production LO-mode EDF test behind
// SchedulableLO. Instead of checking the processor demand criterion at
// every absolute deadline up to the horizon L, QPA iterates t ← h(t) (or
// the largest deadline below t) downward from the last deadline before
// L, visiting only a tiny fraction of the testing points. It is exact for
// U < 1; the every-deadline walk it replaced (demandWalkLO, qpa_test.go)
// is kept as its differential-testing oracle.

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

// qpaHI decides s_min ≤ cap for the set whose HI-mode demand plan
// (dbf.KindDBF) is plan, given directed bounds uLo ≤ U_HI ≤ uHi — the
// HI-mode counterpart of qpaLO behind the design searches' probes
// (capProbe.meets). With h = plan.Value it iterates downward from
//
//	t₀ = ⌊B/(cap − uHi)⌋ ,   t ← min(t − 1, ⌈h(t)/cap⌉ − 1) ,
//
// B the plan's envelope intercept (dbf.Plan.Intercept), rejecting at the
// first t with h(t) > cap·t and accepting when t reaches 0 with
// h(0) = 0. decided is false when the iteration does not apply — uLo ≤
// cap ≤ uHi, a t₀ beyond skipHorizon (or not representable), or more
// than maxIter iterations — and the caller must walk instead. witness is
// a Δ > 0 to warm the next probe at: on a reject the violating t, on an
// accept the largest-ratio t evaluated; 0 when no point was evaluated.
//
// Soundness. s_min ≥ U_HI ≥ uLo (the ratio tends to U_HI as Δ → ∞), so
// uLo > cap rejects outright. Otherwise cap > uHi, and every Δ ≥
// B/(cap − uHi) has h(Δ) ≤ U_HI·Δ + B ≤ cap·Δ; every integer above t₀ is
// such a Δ. Every slope-change and jump point of h is an integer
// (periods, ramp starts and ramp ends are), so h is linear on each
// [k, k+1) and its left limit at k+1 is at most h(k+1): h(Δ) ≤ cap·Δ at
// two consecutive integers implies it on the whole unit interval between
// them, and integer points suffice. An integer t with h(t) ≤ cap·t
// clears every Δ in [h(t)/cap, t], because h is non-decreasing:
// h(Δ) ≤ h(t) ≤ cap·Δ. The next point ⌈h(t)/cap⌉ − 1 is the largest
// integer below that range, so no integer in (0, t₀] escapes the check,
// and a reject names a point whose ratio exceeds cap, a lower bound of
// s_min above it. The iteration is exact: it decides s_min ≤ cap the way
// the full Theorem-2 walk does.
func qpaHI(plan *dbf.Plan, cap, uLo, uHi rat.Rat, maxIter int) (meets, decided bool, witness task.Time) {
	if uLo.Cmp(cap) > 0 {
		return false, true, 0
	}
	if cap.Cmp(uHi) <= 0 {
		return false, false, 0
	}
	gap, ok := cap.AddChecked(uHi.Neg())
	if !ok {
		return false, false, 0
	}
	t := task.Time(rat.FloorDiv(int64(plan.Intercept()), gap))
	if t > skipHorizon {
		return false, false, 0
	}
	capV, capP := task.Time(cap.Num()), task.Time(cap.Den())
	bestV, bestP := task.Time(0), task.Time(1)
	for iter := 0; t > 0; iter++ {
		if iter == maxIter {
			return false, false, witness
		}
		// h(t) ≤ cap·t ⇔ h(t) ≤ ⌊cap·t⌋ for integral h; the capped
		// evaluation stops at the first row that settles a reject.
		h, within := plan.ValueCapped(t, floorMulDiv(capV, t, capP))
		if !within {
			return false, true, t
		}
		if ratioGreater(h, t, bestV, bestP) {
			bestV, bestP, witness = h, t, t
		}
		if h == 0 {
			break // h vanishes on all of [0, t]
		}
		t = task.Time(rat.MaxIntBelowRatio(int64(h), cap, int64(t-1)))
	}
	if plan.Value(0) > 0 {
		return false, true, witness // demand at Δ = 0: s_min = +Inf
	}
	return true, true, witness
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
