package core

import (
	"fmt"
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// ceilBig returns ⌈v⌉ as an int64 (v is horizon-scale, far within range).
func ceilBig(v *big.Rat) int64 {
	q := new(big.Int).Quo(v.Num(), v.Denom())
	if v.Num().Sign() > 0 && new(big.Int).Mul(q, v.Denom()).Cmp(v.Num()) != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

// SchedulableLO reports whether the task set is EDF-schedulable in LO mode
// at unit speed, i.e. whether Σ_i DBF_LO(τ_i, Δ) ≤ Δ for every Δ ≥ 0
// (the processor demand criterion over the LO-mode parameters, with HI
// tasks using their shortened virtual deadlines).
//
// The test is exact for total LO-mode utilization U < 1 using the standard
// pseudo-polynomial horizon max(max_i D_i(LO), Σ_i (T_i−D_i)·U_i/(1−U)).
// For U = 1 it is exact when all LO-mode deadlines are implicit (then the
// demand never exceeds U·Δ); any other U = 1 set is conservatively
// rejected. U > 1 is always unschedulable.
func SchedulableLO(s task.Set) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	return schedulableLO(s), nil
}

// schedulableLO is the decision body of SchedulableLO and
// dbf.SetState.LOSched. It reads U(LO) and the QPA horizon from their
// brackets (rat.Bracket), and runs the exact folds of
// schedulableLOWithSums only where a bracket cannot decide. The bracket
// horizon is an upper bound on the exact one, and QPA is exact over any
// horizon at or above a set's own (see MinimalX), so the verdict is the
// exact fold's.
func schedulableLO(s task.Set) bool {
	u := s.UtilBracket(task.LO)
	c, ok := u.Cmp(rat.One)
	if !ok {
		return schedulableLOWithSums(s, s.UtilSum(task.LO), dbf.LODemandSum(s))
	}
	if ok, decided := loUtilVerdict(s, c); decided {
		return ok
	}
	h, ok := rat.HorizonBound(dbf.LODemandBracket(s), u)
	if !ok {
		h = horizonQuotient(dbf.LODemandSum(s), s.UtilSum(task.LO))
	}
	return qpaLO(s, atLeastDeadlines(s, h))
}

// schedulableLOWithSums is the exact-fold form of schedulableLO: the
// utilization trichotomy plus the QPA run, given the exact LO utilization
// U and the QPA horizon numerator Σ(T−D)·C/T of s.
func schedulableLOWithSums(s task.Set, u, sum rat.Sum) bool {
	if ok, decided := loUtilVerdict(s, u.Cmp(rat.One)); decided {
		return ok
	}
	// Any Δ violating the PDC satisfies Δ < Σ(T_i−D_i)·U_i/(1−U); run
	// the QPA downward iteration (see qpa.go) over that horizon.
	return qpaLO(s, loHorizon(s, sum, u))
}

// loUtilVerdict is the utilization trichotomy of the LO-mode test, given
// the comparison c of U(LO) with 1: U > 1 is unschedulable, U = 1 is
// decided by the implicit-deadline rule, and U < 1 is left to QPA
// (decided = false).
func loUtilVerdict(s task.Set, c int) (ok, decided bool) {
	switch c {
	case 1:
		return false, true
	case 0:
		for i := range s {
			if s[i].Deadline[task.LO] != s[i].Period[task.LO] {
				// Conservative: a U = 1 set with a constrained
				// deadline generally overloads some interval; an
				// exact decision would require walking a full
				// hyperperiod.
				return false, true
			}
		}
		return true, true
	}
	return false, false
}

// MinimalX finds the smallest uniform overrun-preparation factor x
// (eq. (13)) such that the set with HI-criticality virtual deadlines
// D_i(LO) = max(C_i(LO), floor(x·D_i(HI))) remains EDF-schedulable in LO
// mode — the configuration the paper uses throughout the Fig. 6
// experiments ("x in all cases is set to the minimum to guarantee LO mode
// schedulability"). It returns the factor and the transformed set.
//
// Shrinking x shortens virtual deadlines, which only increases LO-mode
// demand, so feasibility is monotone in x and a binary search over the
// grid x = k/D_max (the coarsest grid on which every floor(x·D_i) value is
// realized) is exact.
//
// Every probe runs QPA over one horizon computed before the search (see
// minimalXHorizon) rather than its own: the candidates share U(LO), and
// the horizon only grows as deadlines shrink, so the horizon of the
// shortest deadlines any candidate can have bounds every candidate's.
// QPA is exact over any horizon at or above a set's own — the points
// beyond it are still genuine demand checks, none of which a
// schedulable set fails — so every verdict is the per-probe one.
func MinimalX(s task.Set) (rat.Rat, task.Set, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, nil, err
	}
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}
	if dMax == 0 {
		// No HI task: nothing to shorten; x is irrelevant.
		ok, err := SchedulableLO(s)
		if err != nil {
			return rat.Rat{}, nil, err
		}
		if !ok {
			return rat.Rat{}, nil, fmt.Errorf("core: set is not LO-mode schedulable")
		}
		return rat.One, s.Clone(), nil
	}

	// Eq. (13) only shortens deadlines, so U(LO) is the same for every
	// x. A probe's set needs no validation: s is valid, and
	// ShortenHIDeadlines keeps C(LO) ≤ D(LO) < D(HI) or fails.
	//
	// Probes write into spare; a feasible probe's set becomes best and
	// best's old buffer the next spare, so the search allocates two sets
	// however many probes it takes.
	u := s.UtilBracket(task.LO)
	c, ok := u.Cmp(rat.One)
	if !ok {
		c = s.UtilSum(task.LO).Cmp(rat.One)
	}
	var best, spare task.Set
	var horizon int64
	if c < 0 {
		spare, horizon = minimalXHorizon(s, u, spare)
	}
	feasible := func(k int64) bool {
		out, err := s.ShortenHIDeadlinesInto(spare, rat.New(k, int64(dMax)))
		if err != nil {
			return false
		}
		spare = out
		ok, decided := loUtilVerdict(out, c)
		if !decided {
			ok = qpaLO(out, horizon)
		}
		if !ok {
			return false
		}
		best, spare = out, best
		return true
	}

	// The largest candidate (k = dMax−1, i.e. x just below 1) is the
	// easiest configuration; if even that fails the set is hopeless.
	hi := int64(dMax) - 1
	if !feasible(hi) {
		return rat.Rat{}, nil, fmt.Errorf("core: no x in (0,1) makes the set LO-mode schedulable")
	}
	lo := int64(0) // k = 0 is x = 0, invalid by construction → infeasible sentinel
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return rat.New(hi, int64(dMax)), best, nil
}

// minimalXHorizon returns a QPA horizon valid for every MinimalX
// candidate of s, whose LO utilization, bracketed by u, must be below 1.
// A candidate gives each HI task a virtual deadline
// D(LO) ∈ [C(LO), D(HI)−1] and leaves every LO task as it is, so with
// D_min the shortest of those deadlines,
//
//	H = max(max D over LO tasks, max D(HI)−1 over HI tasks,
//	        ⌈Σ_i (T_i−D_min,i)·U_i/(1−U)⌉)
//
// bounds each candidate's own horizon term by term. The quotient is the
// brackets' upper bound where they give one (rat.HorizonBound) and the
// exact fold's otherwise. The shortest-deadline set is built in buf's
// backing array, which is returned for reuse.
func minimalXHorizon(s task.Set, u rat.Bracket, buf task.Set) (task.Set, int64) {
	shortest := append(buf[:0], s...)
	var maxD task.Time
	for i := range shortest {
		d := shortest[i].Deadline[task.LO]
		if shortest[i].Crit == task.HI {
			d = shortest[i].Deadline[task.HI] - 1
			shortest[i].Deadline[task.LO] = shortest[i].WCET[task.LO]
		}
		if d > maxD {
			maxD = d
		}
	}
	horizon, ok := rat.HorizonBound(dbf.LODemandBracket(shortest), u)
	if !ok {
		// Shortening deadlines leaves U(LO) as it is in s.
		horizon = horizonQuotient(dbf.LODemandSum(shortest), s.UtilSum(task.LO))
	}
	if int64(maxD) > horizon {
		horizon = int64(maxD)
	}
	return shortest, horizon
}
