package core

// Reference implementations of the analyses, kept as oracles for the
// differential tests. Each walk re-evaluates the whole set directly at
// every event through the scalar dbf entry points (no compiled plan, no
// incremental walker, no bulk skips), and each design search
// materializes every candidate set and runs the full MinSpeedup on it
// (no SetState, no witness certificate, no QPA). The production
// paths must reproduce these payloads on every exact result while never
// examining more events.

import (
	"fmt"
	"math/big"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// setValue is the scalar O(n) single-point evaluation of the
// kind-selected HI-mode curve (Σ DBF_HI or Σ ADB_HI) that walkers and
// compiled plans must reproduce exactly.
func setValue(s task.Set, kind dbf.Kind, delta task.Time) task.Time {
	if kind == dbf.KindDBF {
		return dbf.SetHIMode(s, delta)
	}
	return dbf.SetADB(s, delta)
}

// sameSpeedupPayload reports whether got carries want's payload: every
// field but the Events/Jumps walk accounting.
func sameSpeedupPayload(got, want SpeedupResult) bool {
	return got.Speedup.Eq(want.Speedup) && got.LowerBound.Eq(want.LowerBound) &&
		got.Exact == want.Exact && got.WitnessDelta == want.WitnessDelta
}

// sameSpeedForResetPayload is sameSpeedupPayload for MinSpeedForReset.
func sameSpeedForResetPayload(got, want SpeedForResetResult) bool {
	return got.Speed.Eq(want.Speed) && got.Attained == want.Attained && got.WitnessDelta == want.WitnessDelta
}

// referenceIntercept is the tight DBF_HI envelope intercept
// Σ ⌈C(HI)·(T(HI) − e)/T(HI)⌉ over active tasks, e = min(D(HI) − D(LO) +
// C(LO), T(HI)) the carry-over ramp end, folded in big.Int from the task
// fields rather than from a compiled plan.
func referenceIntercept(s task.Set) task.Time {
	var sum task.Time
	for i := range s {
		t := &s[i]
		if t.Terminated() {
			continue
		}
		period := t.Period[task.HI]
		end := min(t.Deadline[task.HI]-t.Deadline[task.LO]+t.WCET[task.LO], period)
		num := new(big.Int).Mul(big.NewInt(int64(t.WCET[task.HI])), big.NewInt(int64(period-end)))
		q, r := new(big.Int).QuoRem(num, big.NewInt(int64(period)), new(big.Int))
		if r.Sign() != 0 {
			q.Add(q, big.NewInt(1))
		}
		sum += task.Time(q.Int64())
	}
	return sum
}

// referenceMinSpeedup is Theorem 2 by direct re-evaluation of the full
// set at each event of eq. (8), with the same two stopping rules as the
// production walk.
func referenceMinSpeedup(s task.Set, o Options) (SpeedupResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedupResult{}, err
	}
	uLo, uHi := s.UtilBounds(task.HI)
	icpt := referenceIntercept(s)
	if v := dbf.SetHIMode(s, 0); v > 0 {
		return SpeedupResult{Speedup: rat.PosInf, LowerBound: rat.PosInf, Exact: true}, nil
	}
	hyper, hyperOK := dbf.HIHyperperiod(s)
	best := rat.Zero
	var witness task.Time
	pos := task.Time(0)
	events := 0
	for ; events < o.maxEvents(); events++ {
		next, ok := dbf.SetNextEvent(s, dbf.KindDBF, pos)
		if !ok {
			return SpeedupResult{Speedup: rat.Zero, LowerBound: rat.Zero, Exact: true, Events: events}, nil
		}
		pos = next
		v := dbf.SetHIMode(s, pos)
		ratio := rat.New(int64(v), int64(pos))
		if ratio.Cmp(best) > 0 {
			best = ratio
			witness = pos
		}
		if best.Cmp(uHi.Add(rat.New(int64(icpt), int64(pos)))) >= 0 {
			return SpeedupResult{Speedup: best, LowerBound: best, Exact: true, WitnessDelta: witness, Events: events + 1}, nil
		}
		if hyperOK && pos >= hyper {
			if best.Cmp(uHi) >= 0 {
				return SpeedupResult{Speedup: best, LowerBound: best, Exact: true, WitnessDelta: witness, Events: events + 1}, nil
			}
			if uLo.Eq(uHi) {
				return SpeedupResult{Speedup: uHi, LowerBound: uHi, Exact: true, Events: events + 1}, nil
			}
			return SpeedupResult{Speedup: uHi, LowerBound: rat.Max(best, uLo), Exact: false, Events: events + 1}, nil
		}
	}
	envelope := uHi.Add(rat.New(int64(icpt), int64(pos)))
	return SpeedupResult{
		Speedup: rat.Max(best, envelope), LowerBound: rat.Max(best, uLo),
		Exact: false, WitnessDelta: witness, Events: events,
	}, nil
}

// referenceResetTime is Corollary 5's eq. (12) by direct re-evaluation:
// visit every ADB event in order and, on each linear segment, test the
// left endpoint and then the segment's own crossing with the supply
// line. The crossing is solved in math/big, so the reference never
// overflows; it is returned exactly when it fits the int64 rationals and
// rounded up onto ResetTime's 2^-20 grid otherwise.
func referenceResetTime(s task.Set, speed rat.Rat) (ResetResult, error) {
	if err := s.Validate(); err != nil {
		return ResetResult{}, err
	}
	if err := validateSpeed(speed); err != nil {
		return ResetResult{}, err
	}
	if _, uHi := s.UtilBounds(task.HI); speed.Cmp(uHi) <= 0 {
		return ResetResult{Reset: rat.PosInf}, nil
	}
	pos := task.Time(0)
	for events := 0; ; events++ {
		v := dbf.SetADB(s, pos)
		if v == 0 || (pos > 0 && speed.CmpRatio(int64(v), int64(pos)) >= 0) {
			return ResetResult{Reset: rat.FromInt64(int64(pos)), Events: events}, nil
		}
		next, ok := dbf.SetNextEvent(s, dbf.KindADB, pos)
		if !ok {
			return ResetResult{Reset: bigCrossing(v, 0, pos, speed), Events: events}, nil
		}
		// The segment (pos, next) is v + m·(Δ − pos); it meets the supply
		// line before next iff its left limit at next lies strictly below
		// speed·next (the value at next itself may jump upward).
		m := dbf.SetRightSlope(s, dbf.KindADB, pos)
		if speed.CmpRatio(int64(v+m*(next-pos)), int64(next)) > 0 {
			return ResetResult{Reset: bigCrossing(v, m, pos, speed), Events: events}, nil
		}
		pos = next
	}
}

// bigCrossing solves v + m·(Δ − pos) = speed·Δ exactly in math/big.
func bigCrossing(v, m, pos task.Time, speed rat.Rat) rat.Rat {
	num := new(big.Rat).SetInt64(int64(v - m*pos))
	x := num.Quo(num, new(big.Rat).Sub(speed.Big(), new(big.Rat).SetInt64(int64(m))))
	if x.Num().IsInt64() && x.Denom().IsInt64() {
		return rat.New(x.Num().Int64(), x.Denom().Int64())
	}
	return rat.FromBig(x, true)
}

// referenceMinSpeedForReset is the infimum of ΣADB_HI(Δ)/Δ over
// Δ ∈ (0, budget] by direct re-evaluation at every event: each event's
// left limit (not attained) and value (attained), and finally the value
// at the budget itself.
func referenceMinSpeedForReset(s task.Set, budget task.Time, o Options) (SpeedForResetResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedForResetResult{}, err
	}
	if budget <= 0 {
		return SpeedForResetResult{}, fmt.Errorf("core: reset budget %d must be positive", budget)
	}
	best := rat.PosInf
	attained := false
	var witness task.Time
	consider := func(num, den task.Time, at task.Time, pointAttained bool) {
		switch r := rat.New(int64(num), int64(den)); best.Cmp(r) {
		case 1:
			best, attained, witness = r, pointAttained, at
		case 0:
			attained = attained || pointAttained
		}
	}
	pos, events := task.Time(0), 0
	for {
		next, ok := dbf.SetNextEvent(s, dbf.KindADB, pos)
		if !ok || next > budget {
			break
		}
		v, m := dbf.SetADB(s, pos), dbf.SetRightSlope(s, dbf.KindADB, pos)
		consider(v+m*(next-pos), next, next, false)
		pos = next
		events++
		if events > o.maxEvents() {
			return SpeedForResetResult{}, fmt.Errorf("core: reference speed-for-reset walk exceeded %d events", o.maxEvents())
		}
		consider(dbf.SetADB(s, pos), pos, pos, true)
	}
	vAtB := dbf.SetADB(s, pos) + dbf.SetRightSlope(s, dbf.KindADB, pos)*(budget-pos)
	consider(vAtB, budget, budget, true)
	return SpeedForResetResult{Speed: best, Attained: attained, WitnessDelta: witness, Events: events}, nil
}

// referenceMinimalX is MinimalX with each probe decided by the exact
// folds: every candidate's own exact U(LO), LO demand sum Σ(T−D)·C/T and
// loHorizon, through schedulableLOWithSums. Production takes each probe's
// U(LO) bracket from the input set and its horizon from the probe's own
// brackets (schedulableLOUtil, rat.HorizonBound), and must return the
// same x, set and error.
func referenceMinimalX(s task.Set) (rat.Rat, task.Set, error) {
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
	u := s.UtilSum(task.LO)
	var best, spare task.Set
	feasible := func(k int64) bool {
		out, err := s.ShortenHIDeadlinesInto(spare, rat.New(k, int64(dMax)))
		if err != nil {
			return false
		}
		spare = out
		if !schedulableLOWithSums(out, u, dbf.LODemandSum(out)) {
			return false
		}
		best, spare = out, best
		return true
	}
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

// capMet reports whether the full Theorem-2 result of set fits under cap.
func capMet(set task.Set, cap rat.Rat) (bool, error) {
	res, err := MinSpeedup(set)
	if err != nil {
		return false, err
	}
	return res.Speedup.Cmp(cap) <= 0, nil
}

// referenceMinimalY is MinimalY's search — feasibility ceiling by
// termination, y = 1, exponential search, bisection over the grid
// y = k/T_max — with every candidate materialized by DegradeLO and
// decided by a full MinSpeedup. The design references return
// MinimalY's, FeasibleXWindow's and TuneDeadlines' error messages, so
// the differentials compare failures as well as results.
func referenceMinimalY(s task.Set, speedCap rat.Rat) (rat.Rat, task.Set, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, nil, err
	}
	if speedCap.Sign() <= 0 {
		return rat.Rat{}, nil, fmt.Errorf("core: speed cap %v must be positive", speedCap)
	}
	var q task.Time
	for i := range s {
		if s[i].Crit == task.LO && s[i].Period[task.LO] > q {
			q = s[i].Period[task.LO]
		}
	}
	if q == 0 {
		if ok, err := capMet(s, speedCap); err != nil {
			return rat.Rat{}, nil, err
		} else if !ok {
			return rat.Rat{}, nil, fmt.Errorf("core: no LO tasks to degrade and s_min exceeds %v", speedCap)
		}
		return rat.One, s.Clone(), nil
	}
	if ok, err := capMet(s.TerminateLO(), speedCap); err != nil {
		return rat.Rat{}, nil, err
	} else if !ok {
		return rat.Rat{}, nil, fmt.Errorf("core: even terminating LO tasks needs more than %v speedup", speedCap)
	}
	meetsK := func(k int64) (bool, error) {
		set, err := s.DegradeLO(rat.New(k, int64(q)))
		if err != nil {
			return false, err
		}
		return capMet(set, speedCap)
	}
	loK, hiK := int64(q), int64(q)
	if ok, err := meetsK(hiK); err != nil {
		return rat.Rat{}, nil, err
	} else if !ok {
		for hiK = 2 * loK; ; loK, hiK = hiK, 2*hiK {
			if hiK > int64(q)*(1<<20) {
				return rat.Rat{}, nil, fmt.Errorf("core: no finite degradation factor up to 2^20 meets %v", speedCap)
			}
			ok, err := meetsK(hiK)
			if err != nil {
				return rat.Rat{}, nil, err
			}
			if ok {
				break
			}
		}
		for hiK-loK > 1 {
			mid := loK + (hiK-loK)/2
			ok, err := meetsK(mid)
			if err != nil {
				return rat.Rat{}, nil, err
			}
			if ok {
				hiK = mid
			} else {
				loK = mid
			}
		}
	}
	y := rat.New(hiK, int64(q))
	set, err := s.DegradeLO(y)
	return y, set, err
}

// referenceFeasibleXWindow is FeasibleXWindow's bisection over the grid
// x = k/D_max with every candidate materialized by ShortenHIDeadlines
// and decided by a full MinSpeedup.
func referenceFeasibleXWindow(s task.Set, speedCap rat.Rat) (xLo, xHi rat.Rat, err error) {
	if speedCap.Sign() <= 0 {
		return rat.Rat{}, rat.Rat{}, fmt.Errorf("core: speed cap %v must be positive", speedCap)
	}
	xLo, _, err = MinimalX(s)
	if err != nil {
		return rat.Rat{}, rat.Rat{}, err
	}
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}
	if dMax == 0 {
		return xLo, xLo, nil
	}
	meets := func(k int64) (bool, error) {
		set, err := s.ShortenHIDeadlines(rat.New(k, int64(dMax)))
		if err != nil {
			return false, nil // no room for some virtual deadline
		}
		return capMet(set, speedCap)
	}
	lo, hi := xLo.MulInt(int64(dMax)).Ceil(), int64(dMax)-1
	if ok, err := meets(lo); err != nil {
		return rat.Rat{}, rat.Rat{}, err
	} else if !ok {
		return rat.Rat{}, rat.Rat{}, fmt.Errorf(
			"core: no overrun preparation satisfies both LO mode and a %v speed cap", speedCap)
	}
	if ok, err := meets(hi); err != nil {
		return rat.Rat{}, rat.Rat{}, err
	} else if ok {
		return xLo, rat.New(hi, int64(dMax)), nil
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := meets(mid)
		if err != nil {
			return rat.Rat{}, rat.Rat{}, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return xLo, rat.New(lo, int64(dMax)), nil
}

// referenceTuneDeadlines is TuneDeadlines' greedy descent with every
// candidate move materialized as a cloned set with one D(LO) edited,
// screened by the cold SchedulableLO and scored by a full MinSpeedup.
func referenceTuneDeadlines(s task.Set, step rat.Rat) (TuneResult, error) {
	if step.Sign() <= 0 {
		step = rat.New(1, 16)
	}
	if step.Cmp(rat.One) >= 0 {
		return TuneResult{}, fmt.Errorf("core: tuning step %v must be in (0,1)", step)
	}
	_, cur, err := MinimalX(s)
	if err != nil {
		return TuneResult{}, err
	}
	base, err := MinSpeedup(cur)
	if err != nil {
		return TuneResult{}, err
	}
	res := TuneResult{UniformSpeedup: base.Speedup}
	best := base.Speedup
	for rounds := 0; rounds < 64*len(cur); rounds++ {
		bestIdx := -1
		var bestD task.Time
		bestVal := best
		for i, t := range cur {
			if t.Crit != task.HI {
				continue
			}
			delta := task.Time(step.MulInt(int64(t.Deadline[task.HI])).Floor())
			if delta < 1 {
				delta = 1
			}
			d := t.Deadline[task.LO] - delta
			if d < t.WCET[task.LO] {
				d = t.WCET[task.LO]
			}
			if d >= t.Deadline[task.LO] {
				continue
			}
			cand := cur.Clone()
			cand[i].Deadline[task.LO] = d
			if ok, err := SchedulableLO(cand); err != nil || !ok {
				continue
			}
			sp, err := MinSpeedup(cand)
			if err != nil {
				return TuneResult{}, err
			}
			if sp.Speedup.Cmp(bestVal) < 0 {
				bestIdx, bestD, bestVal = i, d, sp.Speedup
			}
		}
		if bestIdx < 0 {
			break
		}
		cur = cur.Clone()
		cur[bestIdx].Deadline[task.LO] = bestD
		best = bestVal
		res.Rounds++
	}
	res.Set = cur
	res.Speedup = best
	return res, nil
}
