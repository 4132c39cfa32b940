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

// The cold folds below are the single definitions of the O(n) aggregates
// the analyses derive from a set: the cold entry points call them
// directly, and SetState caches their results.

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

// LODemandSum sums the LO-mode QPA horizon numerator Σ(T−D)·C/T exactly:
// in fixed width while the terms and partial sums fit, pairwise in
// big.Rat after (see rat.Folder). It is the fallback of LODemandBracket.
func LODemandSum(s task.Set) rat.Sum {
	var f rat.Folder
	for i := range s {
		ti, di, c := s[i].Period[task.LO], s[i].Deadline[task.LO], s[i].WCET[task.LO]
		term, ok := rat.New(int64(c), int64(ti)).MulChecked(rat.FromInt64(int64(ti - di)))
		if !ok {
			// A term beyond fixed width moves the sum to big.Rat.
			f.AddBig(new(big.Rat).Mul(big.NewRat(int64(ti-di), 1), big.NewRat(int64(c), int64(ti))))
			continue
		}
		f.Add(term)
	}
	return f.Sum()
}

// LODemandBracket returns the allocation-free bracket of LODemandSum (see
// rat.Bracket); each term (T−D)·C/T is formed in 128 bits.
func LODemandBracket(s task.Set) rat.Bracket {
	var b rat.Bracket
	for i := range s {
		ti, di, c := s[i].Period[task.LO], s[i].Deadline[task.LO], s[i].WCET[task.LO]
		b = b.PlusMulDiv(int64(ti-di), int64(c), int64(ti))
	}
	return b
}

// SigmaSum sums the Lemma-6 slopes Σσ_i (TaskSigma) exactly. inf reports
// that some σ_i is infinite, in which case the sum is meaningless and the
// closed-form speedup is +Inf. It is the fallback of SigmaBound.
func SigmaSum(s task.Set) (sum rat.Sum, inf bool) {
	var f rat.Folder
	for i := range s {
		sigma := TaskSigma(&s[i])
		if sigma.IsInf() {
			return rat.Sum{}, true
		}
		f.Add(sigma)
	}
	return f.Sum(), false
}

// SigmaBound returns the Lemma-6 closed-form speedup bound: +Inf when some
// σ_i is, else Σσ_i itself when its reduced denominator is at most 2^20
// and Σσ_i rounded up onto the 2^-20 grid otherwise, which keeps the
// upper bound sound. The sum is read from its bracket when that decides
// the rounding and from SigmaSum otherwise.
func SigmaBound(s task.Set) rat.Rat {
	var b rat.Bracket
	for i := range s {
		sigma := TaskSigma(&s[i])
		if sigma.IsInf() {
			return rat.PosInf
		}
		b = b.PlusRat(sigma)
	}
	if r, ok := b.Round(true); ok {
		return r
	}
	sum, _ := SigmaSum(s)
	return sum.Round(true)
}

// cacheBit is one of SetState's cached aggregate classes.
type cacheBit uint8

const (
	hiBit      cacheBit = 1 << iota // U_HI bounds and total ΣC(HI)
	hyperBit                        // HIHyperperiod
	loUtilBit                       // U_LO bounds
	loSchedBit                      // LOSched's verdict
	sigmaBit                        // SigmaBound
	fpBit                           // Fingerprint
)

// SetState is a task set plus a cache of the O(n) aggregates the HI-mode
// event walks, the LO-mode schedulability test and the closed forms
// derive from it: the state behind core's Analyze and Session reports and
// the design searches' carried candidates. Each aggregate is refilled by
// the same cold fold the non-incremental path calls
// (task.Set.UtilBounds, TotalCHI, HIHyperperiod, SigmaBound,
// Fingerprint, and the caller's LO-mode test), so a cached value equals
// the cold recomputation by construction. The utilizations and Σσ_i are
// cached as the rounded values the analyses read, not as exact sums.
//
// Apply clears the validity bit of every aggregate a touched parameter
// class feeds, and the next read refolds it: a D(LO)-only edit — the
// TuneDeadlines hot path — keeps every HI-mode cache, and a C(HI) edit
// keeps the hyperperiod and every LO-mode cache. The walks' envelope
// intercept (Plan.Intercept) reads D(LO) through each ramp end, so it is
// folded into the plan every walk compiles rather than cached here.
//
// A SetState is not safe for concurrent use; callers (the server's
// session layer) serialize access. All mutation goes through Apply —
// mutating Tasks() directly would desynchronize the caches (deltacheck
// enforces this statically).
type SetState struct {
	set   task.Set // owned copy; exposed read-only via Tasks
	valid cacheBit

	util     [2][2]rat.Rat // per-mode UtilBounds (hiBit, loUtilBit)
	totalCHI task.Time     // hiBit
	hyper    task.Time     // hyperBit
	hyperOK  bool
	loSched  bool    // loSchedBit
	sigma    rat.Rat // sigmaBit
	fp       string  // fpBit
}

// NewSetState validates s and builds a state over a private copy of it.
func NewSetState(s task.Set) (*SetState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &SetState{set: s.Clone()}, nil
}

// Tasks returns the state's task set. It is a live view: callers must
// treat it as read-only and apply changes through Apply only.
func (st *SetState) Tasks() task.Set { return st.set }

// Apply applies one edit and invalidates the caches its parameter classes
// feed. A failing edit leaves the state unchanged.
func (st *SetState) Apply(e task.Edit) error {
	out, tc, err := e.ApplyTo(st.set)
	if err != nil {
		return err
	}
	st.set = out
	st.noteChange(tc)
	return nil
}

// noteChange clears the cache bit of every aggregate whose inputs the
// edit touched. Structural edits set all six parameter flags, so they
// clear everything. A termination toggle always touches T(HI) (Validate
// requires D(HI) and T(HI) to turn unbounded together), so T(HI) covers
// every change of which tasks count as active.
func (st *SetState) noteChange(tc task.Touched) {
	if !tc.Any() {
		return // value-preserving edit: every cache still describes the set
	}
	drop := fpBit
	if tc.CHI || tc.THI {
		drop |= hiBit
	}
	if tc.THI {
		drop |= hyperBit
	}
	if tc.CLO || tc.TLO {
		drop |= loUtilBit
	}
	if tc.CLO || tc.TLO || tc.DLO {
		drop |= loSchedBit
	}
	if tc.CLO || tc.CHI || tc.DLO || tc.DHI || tc.THI {
		drop |= sigmaBit // σ_i reads every parameter except T(LO)
	}
	st.valid &^= drop
}

// fillHI refolds the HI-mode aggregates if an edit invalidated them.
func (st *SetState) fillHI() {
	if st.valid&hiBit == 0 {
		st.util[task.HI][0], st.util[task.HI][1] = st.set.UtilBounds(task.HI)
		st.totalCHI = st.set.TotalCHI()
		st.valid |= hiBit
	}
}

// UtilBounds returns Tasks().UtilBounds(m), cached.
func (st *SetState) UtilBounds(m task.Crit) (lo, hi rat.Rat) {
	if m == task.HI {
		st.fillHI()
	} else if st.valid&loUtilBit == 0 {
		st.util[task.LO][0], st.util[task.LO][1] = st.set.UtilBounds(task.LO)
		st.valid |= loUtilBit
	}
	return st.util[m][0], st.util[m][1]
}

// Util returns Tasks().Util(m), cached: the upper of the two bounds.
func (st *SetState) Util(m task.Crit) rat.Rat {
	_, hi := st.UtilBounds(m)
	return hi
}

// TotalCHI returns Tasks().TotalCHI() (Lemma 7's numerator), cached.
func (st *SetState) TotalCHI() task.Time {
	st.fillHI()
	return st.totalCHI
}

// HIHyperperiod returns HIHyperperiod(Tasks()), cached.
func (st *SetState) HIHyperperiod() (task.Time, bool) {
	if st.valid&hyperBit == 0 {
		st.hyper, st.hyperOK = HIHyperperiod(st.set)
		st.valid |= hyperBit
	}
	return st.hyper, st.hyperOK
}

// Fingerprint returns Tasks().Fingerprint(), cached.
func (st *SetState) Fingerprint() string {
	if st.valid&fpBit == 0 {
		st.fp = st.set.Fingerprint()
		st.valid |= fpBit
	}
	return st.fp
}

// SigmaBound returns SigmaBound(Tasks()), cached.
func (st *SetState) SigmaBound() rat.Rat {
	if st.valid&sigmaBit == 0 {
		st.sigma = SigmaBound(st.set)
		st.valid |= sigmaBit
	}
	return st.sigma
}

// LOSched returns the LO-mode schedulability verdict, cached: test (core's
// processor-demand test) runs again only after an LO-mode parameter
// changed.
func (st *SetState) LOSched(test func(s task.Set) bool) bool {
	if st.valid&loSchedBit == 0 {
		st.loSched = test(st.set)
		st.valid |= loSchedBit
	}
	return st.loSched
}
