package dbf

import (
	"math/big"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// hyperHorizon caps the hyperperiod used as a walking horizon; it matches
// core's skipHorizon so bulk skips and event-by-event steps inhabit the
// same position range.
const hyperHorizon = task.Time(1) << 40

// SumActiveCHI sums C_i(HI) over tasks that are not terminated
// (terminated tasks contribute zero HI-mode demand, so they do not enter
// the DBF envelope bound ΣDBF_HI(Δ) ≤ U_HI·Δ + ΣC(HI)).
func SumActiveCHI(s task.Set) task.Time {
	var total task.Time
	for i := range s {
		if !s[i].Terminated() {
			total += s[i].WCET[task.HI]
		}
	}
	return total
}

// HIHyperperiod returns the least common multiple of the HI-mode periods
// of the non-terminated tasks, with ok=false on overflow or when it
// exceeds the practical walking horizon. By the exact periodicity
// DBF_HI(Δ+T) = DBF_HI(Δ)+C(HI), one hyperperiod bounds the
// Theorem-2 walk.
func HIHyperperiod(s task.Set) (task.Time, bool) {
	l := task.Time(1)
	for i := range s {
		if s[i].Terminated() {
			continue
		}
		p := s[i].Period[task.HI]
		g := gcd(l, p)
		l = l / g
		if l > hyperHorizon/p {
			return 0, false
		}
		l *= p
	}
	return l, true
}

func gcd(a, b task.Time) task.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SetState is an incrementally maintained demand structure over a task
// set: the set itself plus every O(n) aggregate the HI-mode event walks
// and the LO-mode schedulability test derive from it. Applying a
// task.Edit updates the additive aggregates from the edit's before/after
// values and invalidates only the caches the touched parameter classes
// feed, so a single-parameter edit costs O(changed tasks) bookkeeping
// instead of an O(n) rebuild — the delta path behind core's Session and
// the rewired design searches.
//
// Every cached value is defined as "exactly what the cold recomputation
// over Tasks() would produce": the lazy accessors call the same
// functions (task.Set.Util/UtilBounds, HIHyperperiod, SumActiveCHI), and
// the incrementally maintained ones use exact rational/integer
// arithmetic whose result is independent of the update order, so delta
// and cold analyses are bit-identical (pinned by the differential and
// fuzz tests in internal/core).
//
// A SetState is not safe for concurrent use; callers (the server's
// session layer) serialize access. All mutation goes through Apply —
// mutating Tasks() directly would desynchronize the caches (deltacheck
// enforces this statically).
type SetState struct {
	set task.Set // owned copy; exposed read-only via Tasks

	// Exact integer aggregates, updated in O(1) per edit.
	sumActiveCHI task.Time
	totalCHI     task.Time

	// Lazily (re)computed aggregates with validity flags. Invalidation
	// is per parameter class: a D(LO)-only edit — the TuneDeadlines hot
	// path — leaves every HI-mode cache valid, and a C(HI) edit leaves
	// the hyperperiod and all LO-mode caches valid.
	utilValid   [2]bool
	utilVal     [2]rat.Rat
	boundsValid [2]bool
	boundsLo    [2]rat.Rat
	boundsHi    [2]rat.Rat

	// Exact per-mode utilization sums Σ C(m)/T(m) over tasks with bounded
	// T(m), maintained incrementally once folded (nil until first
	// requested). Util and UtilBounds are directed roundings of these
	// exact values — the same roundings the cold paths apply to the same
	// exact sum, so the cached results stay bit-identical while a C(HI)
	// edit costs one big.Rat add/sub instead of an O(n) refold.
	utilSum [2]*big.Rat

	hyperValid bool
	hyper      task.Time
	hyperOK    bool

	fp string // cached Fingerprint; "" = invalid

	// Exact big.Rat LO-mode sums, maintained incrementally (big.Rat
	// addition is exactly invertible, unlike the int64 fast path of
	// UtilBounds); nil until first requested.
	loUtil      *big.Rat // Σ C(LO)/T(LO)
	loDemandSum *big.Rat // Σ (T(LO)−D(LO))·C(LO)/T(LO), the QPA horizon numerator

	// Exact Lemma-6 sum Σ_{finite σ_i} σ_i (TaskSigma), maintained like
	// the LO sums, plus the count of tasks whose σ_i is infinite (which
	// big.Rat cannot hold); nil until first requested.
	sigmaSum *big.Rat
	sigmaInf int

	// Cached LO-mode schedulability verdict (stored by core's state-aware
	// test), valid until any LO-mode parameter changes.
	loSchedValid bool
	loSched      bool
}

// NewSetState validates s and builds a state over a private copy of it.
func NewSetState(s task.Set) (*SetState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &SetState{set: s.Clone()}
	st.sumActiveCHI = SumActiveCHI(st.set)
	st.totalCHI = st.set.TotalCHI()
	return st, nil
}

// Tasks returns the state's task set. It is a live view: callers must
// treat it as read-only and apply changes through Apply only.
func (st *SetState) Tasks() task.Set { return st.set }

// Apply applies one edit and updates the maintained aggregates in O(1).
// A failing edit leaves the state unchanged.
func (st *SetState) Apply(e task.Edit) error {
	_, err := st.ApplyTouched(e)
	return err
}

// ApplyTouched is Apply returning the edit's task.Touched impact record,
// for callers (core's Session) that maintain derived structures of their
// own — e.g. classifying value-only C(HI) edits that keep a recorded
// event curve's positions intact.
func (st *SetState) ApplyTouched(e task.Edit) (task.Touched, error) {
	out, tc, err := e.ApplyTo(st.set)
	if err != nil {
		return task.Touched{}, err
	}
	st.set = out
	st.noteChange(tc)
	return tc, nil
}

// noteChange folds one edit's impact into the aggregates: additive
// integer sums are updated exactly from the before/after task values,
// everything else is invalidated per parameter class and lazily
// recomputed by the same cold functions the non-incremental path uses.
func (st *SetState) noteChange(tc task.Touched) {
	if !tc.Any() {
		return // value-preserving edit: every cache still describes the set
	}
	st.fp = ""

	hiTouched := tc.CHI || tc.THI || tc.Added || tc.Removed
	if hiTouched {
		// ΣC(HI) sums move by the difference of the task's contributions.
		// A termination toggle always touches T(HI) (Validate requires
		// D(HI) and T(HI) to turn unbounded together), so the guard
		// covers every active-contribution change.
		if !tc.Added && !tc.Old.Terminated() {
			st.sumActiveCHI -= tc.Old.WCET[task.HI]
		}
		if !tc.Removed && !tc.New.Terminated() {
			st.sumActiveCHI += tc.New.WCET[task.HI]
		}
		if !tc.Added {
			st.totalCHI -= tc.Old.WCET[task.HI]
		}
		if !tc.Removed {
			st.totalCHI += tc.New.WCET[task.HI]
		}
		st.utilValid[task.HI] = false
		st.boundsValid[task.HI] = false
		st.noteUtil(task.HI, tc)
	}

	if tc.THI || tc.Removed {
		st.hyperValid = false
		st.hyper, st.hyperOK = 0, false
	} else if tc.Added && st.hyperValid && st.hyperOK && !tc.New.Terminated() {
		// Appending a task extends HIHyperperiod's fold by exactly one
		// step, so the incremental lcm (with the same overflow check)
		// reproduces the full recomputation.
		p := tc.New.Period[task.HI]
		g := gcd(st.hyper, p)
		l := st.hyper / g
		if l > hyperHorizon/p {
			st.hyper, st.hyperOK = 0, false
		} else {
			st.hyper = l * p
		}
	}

	loTouched := tc.CLO || tc.TLO || tc.Added || tc.Removed
	if loTouched {
		st.utilValid[task.LO] = false
		st.boundsValid[task.LO] = false
		st.noteUtil(task.LO, tc)
		if st.loUtil != nil {
			if !tc.Added {
				st.loUtil.Sub(st.loUtil, loUtilTerm(&tc.Old))
			}
			if !tc.Removed {
				st.loUtil.Add(st.loUtil, loUtilTerm(&tc.New))
			}
		}
	}
	if st.sigmaSum != nil && (hiTouched || tc.CLO || tc.DLO || tc.DHI) {
		// σ_i reads every parameter except T(LO); fold the task's before
		// and after contributions exactly like the LO sums.
		if !tc.Added {
			st.dropSigma(&tc.Old)
		}
		if !tc.Removed {
			st.foldSigma(&tc.New)
		}
	}

	if loTouched || tc.DLO {
		if st.loDemandSum != nil {
			if !tc.Added {
				st.loDemandSum.Sub(st.loDemandSum, loDemandTerm(&tc.Old))
			}
			if !tc.Removed {
				st.loDemandSum.Add(st.loDemandSum, loDemandTerm(&tc.New))
			}
		}
		st.loSchedValid = false
	}
}

// loUtilTerm is one task's C(LO)/T(LO) contribution.
func loUtilTerm(t *task.Task) *big.Rat {
	return big.NewRat(int64(t.WCET[task.LO]), int64(t.Period[task.LO]))
}

// utilTerm is one task's C(m)/T(m) contribution to the mode-m
// utilization, nil when T(m) is unbounded (terminated tasks contribute
// zero in HI mode, exactly as task.Set.utilSum skips them).
func utilTerm(t *task.Task, m task.Crit) *big.Rat {
	if t.Period[m].IsUnbounded() {
		return nil
	}
	return big.NewRat(int64(t.WCET[m]), int64(t.Period[m]))
}

// noteUtil folds one edit's before/after contributions into the
// maintained mode-m utilization sum, if it has been built.
func (st *SetState) noteUtil(m task.Crit, tc task.Touched) {
	sum := st.utilSum[m]
	if sum == nil {
		return
	}
	if !tc.Added {
		if term := utilTerm(&tc.Old, m); term != nil {
			sum.Sub(sum, term)
		}
	}
	if !tc.Removed {
		if term := utilTerm(&tc.New, m); term != nil {
			sum.Add(sum, term)
		}
	}
}

// utilSumFor returns the exact mode-m utilization sum, folding it once in
// set order on first use and thereafter maintaining it per edit (exact
// rational addition is order-independent and exactly invertible, so the
// sum always equals the cold fold over Tasks()).
func (st *SetState) utilSumFor(m task.Crit) *big.Rat {
	if st.utilSum[m] == nil {
		sum := new(big.Rat)
		for i := range st.set {
			if term := utilTerm(&st.set[i], m); term != nil {
				sum.Add(sum, term)
			}
		}
		st.utilSum[m] = sum
	}
	return st.utilSum[m]
}

// loDemandTerm is one task's (T−D)·C/T contribution to the QPA horizon
// numerator: the exact value core's cold loop sums.
func loDemandTerm(t *task.Task) *big.Rat {
	ti, di := t.Period[task.LO], t.Deadline[task.LO]
	return new(big.Rat).Mul(
		big.NewRat(int64(ti-di), 1),
		big.NewRat(int64(t.WCET[task.LO]), int64(ti)))
}

// Util returns Tasks().Util(m), cached and — once the exact sum is
// folded — revalidated in O(1) after an edit. Bit-identical to the cold
// value: both are rat.FromBig of the same exact rational, rounded up.
func (st *SetState) Util(m task.Crit) rat.Rat {
	if !st.utilValid[m] {
		st.utilVal[m] = rat.FromBig(st.utilSumFor(m), true)
		st.utilValid[m] = true
	}
	return st.utilVal[m]
}

// UtilBounds returns Tasks().UtilBounds(m), cached. Revalidation after an
// edit is O(1) once the exact sum has been built (by a Util call — the
// Session path always makes one); before that it stays on the cold
// alloc-free fast path, so state-per-candidate users like MinimalY pay
// nothing for the machinery. Both derivations are bit-identical: the cold
// int64 fast path and its big.Rat fallback both produce the directed
// roundings of the exact utilization (see task.Set.UtilBounds), which is
// exactly what rat.FromBig of the maintained sum yields.
func (st *SetState) UtilBounds(m task.Crit) (lo, hi rat.Rat) {
	if !st.boundsValid[m] {
		if sum := st.utilSum[m]; sum != nil {
			st.boundsLo[m] = rat.FromBig(sum, false)
			st.boundsHi[m] = rat.FromBig(sum, true)
		} else {
			st.boundsLo[m], st.boundsHi[m] = st.set.UtilBounds(m)
		}
		st.boundsValid[m] = true
	}
	return st.boundsLo[m], st.boundsHi[m]
}

// SumActiveCHI returns the maintained ΣC(HI) over non-terminated tasks.
func (st *SetState) SumActiveCHI() task.Time { return st.sumActiveCHI }

// TotalCHI returns the maintained Σ_i C_i(HI) (Lemma 7's numerator).
func (st *SetState) TotalCHI() task.Time { return st.totalCHI }

// HIHyperperiod returns HIHyperperiod(Tasks()), cached and — for
// appends — incrementally extended.
func (st *SetState) HIHyperperiod() (task.Time, bool) {
	if !st.hyperValid {
		st.hyper, st.hyperOK = HIHyperperiod(st.set)
		st.hyperValid = true
	}
	return st.hyper, st.hyperOK
}

// Fingerprint returns Tasks().Fingerprint(), cached.
func (st *SetState) Fingerprint() string {
	if st.fp == "" {
		st.fp = st.set.Fingerprint()
	}
	return st.fp
}

// LOUtil returns the exact Σ C(LO)/T(LO), folded once in set order and
// thereafter maintained per edit. Callers must not mutate the result.
func (st *SetState) LOUtil() *big.Rat {
	if st.loUtil == nil {
		sum := new(big.Rat)
		for i := range st.set {
			sum.Add(sum, loUtilTerm(&st.set[i]))
		}
		st.loUtil = sum
	}
	return st.loUtil
}

// LODemandSum returns the exact Σ (T−D)·C/T over LO-mode parameters (the
// QPA horizon numerator), maintained like LOUtil. Callers must not
// mutate the result.
func (st *SetState) LODemandSum() *big.Rat {
	if st.loDemandSum == nil {
		sum := new(big.Rat)
		for i := range st.set {
			sum.Add(sum, loDemandTerm(&st.set[i]))
		}
		st.loDemandSum = sum
	}
	return st.loDemandSum
}

// foldSigma adds one task's Lemma-6 contribution to the maintained sum.
func (st *SetState) foldSigma(t *task.Task) {
	if sigma := TaskSigma(t); sigma.IsInf() {
		st.sigmaInf++
	} else {
		st.sigmaSum.Add(st.sigmaSum, sigma.Big())
	}
}

// dropSigma removes one task's Lemma-6 contribution.
func (st *SetState) dropSigma(t *task.Task) {
	if sigma := TaskSigma(t); sigma.IsInf() {
		st.sigmaInf--
	} else {
		st.sigmaSum.Sub(st.sigmaSum, sigma.Big())
	}
}

// SigmaSum returns the exact Lemma-6 sum Σσ_i over tasks with finite
// σ_i, plus the count of tasks whose σ_i is infinite (the closed-form
// speedup is +Inf whenever that count is positive). Folded once in set
// order on first use and thereafter maintained per edit; exact rational
// addition is order-independent and exactly invertible, so the sum always
// equals the cold fold over Tasks(). Callers must not mutate the result.
func (st *SetState) SigmaSum() (*big.Rat, int) {
	if st.sigmaSum == nil {
		st.sigmaSum = new(big.Rat)
		st.sigmaInf = 0
		for i := range st.set {
			st.foldSigma(&st.set[i])
		}
	}
	return st.sigmaSum, st.sigmaInf
}

// LOSchedCache returns the stored LO-mode schedulability verdict and
// whether it is still valid (no LO-mode parameter changed since
// StoreLOSched).
func (st *SetState) LOSchedCache() (verdict, ok bool) {
	return st.loSched, st.loSchedValid
}

// StoreLOSched records the LO-mode schedulability verdict for the
// current set.
func (st *SetState) StoreLOSched(v bool) {
	st.loSched = v
	st.loSchedValid = true
}
