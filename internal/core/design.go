package core

// Design-space solvers: the paper's Section V studies how the overrun
// preparation x (eq. (13)), the service degradation y (eq. (14)), the
// HI-mode speed s, and the resetting time Δ_R trade off against each
// other. The functions here answer the corresponding inverse questions a
// system designer actually asks — "my platform turbo-boosts at most 2×;
// how little degradation can I get away with?", "what speed do I need to
// be back at nominal within 5 s?" — exactly, on top of the Theorem-2 /
// Corollary-5 machinery.

import (
	"fmt"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// SpeedForResetResult is the outcome of MinSpeedForReset.
type SpeedForResetResult struct {
	// Speed is the infimum HI-mode speed factor whose service resetting
	// time meets the budget: Δ_R(s) ≤ budget for every s > Speed, and
	// for s = Speed itself iff Attained.
	Speed rat.Rat
	// Attained reports whether the infimum itself meets the budget.
	// It is false exactly when the decisive demand/length ratio occurs
	// as a left limit just before an upward jump of the arrived-demand
	// curve: the ratio is then approached arbitrarily closely but never
	// reached, so any speed strictly above Speed works while Speed
	// itself does not.
	Attained bool
	// WitnessDelta is the position of the last strict improvement of the
	// running infimum — the Δ whose ratio (or left limit) decided Speed.
	WitnessDelta task.Time
	// Events is the number of slope-change events examined one by one.
	// It is never higher — and usually far lower — than the plain walk
	// that visits every event below the budget.
	Events int
	// Jumps is the number of incumbent bulk skips the walk took.
	Jumps int
}

// MinSpeedForReset computes the infimum HI-mode speed factor s such that
// the service resetting time satisfies Δ_R(s) ≤ budget. The inverse is
// exact and direct: Δ_R(s) ≤ B holds iff the arrived-demand curve dips to
// (or below) the supply line s·Δ somewhere in (0, B], so
//
//	s* = inf_{Δ ∈ (0, B]} Σ_i ADB_HI(τ_i, Δ) / Δ ,
//
// and since the curve is piecewise linear the infimum occurs at an event
// point, at a left limit just before an event's upward jump, or at B
// itself. See SpeedForResetResult.Attained for the (rare) open-infimum
// case.
func MinSpeedForReset(s task.Set, budget task.Time) (SpeedForResetResult, error) {
	return MinSpeedForResetOpts(s, budget, Options{})
}

// MinSpeedForResetOpts is MinSpeedForReset with explicit walk options.
//
// Each budget query walks the ADB events from Δ = 0 up to the budget:
// the walk is not resumable across queries, because the decisive infimum
// for a smaller budget can lie anywhere inside the already-walked prefix
// and the per-event left-limit bookkeeping would have to be replayed
// regardless. The per-query cost is therefore O(E·log n) in the number
// of events E below the budget — but with a Scratch (or the package
// pool) it is allocation-free, so sweeping many budgets over one set
// costs no heap traffic beyond the first query.
//
// The walk bulk-skips runs of events the running infimum proves
// irrelevant: the curve is non-decreasing, so with v = ΣADB_HI(pos)
// every position Δ in (pos, b] has ratio value(Δ)/Δ ≥ v/Δ ≥ v/b — and
// the same holds for the left limits, whose values are also ≥ v. When b
// is chosen so that b·best < v (the largest such integer,
// rat.MaxIntBelowRatio), with best the running infimum, every skipped
// ratio and left limit is therefore strictly above best: none can lower
// the infimum or flip Attained (which only changes on ratios ≤ best), so
// the result is bit-identical to a walk visiting every event.
//
// The walk honors Options.MaxEvents: a budget dense enough to exceed the
// event cap yields an error rather than an unbounded walk.
func MinSpeedForResetOpts(s task.Set, budget task.Time, o Options) (SpeedForResetResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedForResetResult{}, err
	}
	if budget <= 0 {
		return SpeedForResetResult{}, fmt.Errorf("core: reset budget %d must be positive", budget)
	}
	w := o.acquireWalker(s, dbf.KindADB)
	defer o.releaseWalker(w)
	best := rat.PosInf
	attained := false
	var witness task.Time
	events, jumps := 0, 0
	// The incumbent comparison runs per event (twice: left limit and
	// event point); CmpRatio decides it exactly without normalizing the
	// candidate, and the rational is materialized only on a strict
	// improvement — rare, since the running infimum only ever decreases.
	consider := func(num, den int64, at task.Time, pointAttained bool) {
		switch best.CmpRatio(num, den) {
		case 1:
			best = rat.New(num, den)
			attained, witness = pointAttained, at
		case 0:
			attained = attained || pointAttained
		}
	}
	for {
		next, ok := w.PeekNext()
		if !ok || next > budget {
			break
		}
		// Incumbent bulk skip (see the function comment for the proof).
		if best.Sign() > 0 && !best.IsInf() {
			if v := w.Value(); v > 0 {
				b := task.Time(rat.MaxIntBelowRatio(int64(v), best, int64(budget)))
				if b > next {
					w.SkipTo(b)
					jumps++
					continue
				}
			}
		}
		// Left limit just before the event: the segment's infimum when
		// the curve jumps upward there. It is attained only in the
		// limit, hence pointAttained = false — unless the curve is
		// continuous at the event, in which case the identical ratio is
		// recorded as attained right below.
		leftLimit := w.Value() + w.Slope()*(next-w.Pos())
		consider(int64(leftLimit), int64(next), next, false)
		w.Next()
		events++
		if events > o.maxEvents() {
			return SpeedForResetResult{}, fmt.Errorf(
				"core: speed-for-reset walk exceeded %d events before budget %d; raise Options.MaxEvents or lower the budget",
				o.maxEvents(), budget)
		}
		consider(int64(w.Value()), int64(w.Pos()), w.Pos(), true)
	}
	// The final partial segment up to B (linear, value at B included:
	// any upward jump exactly at B only raises the ratio).
	vAtB := w.Value() + w.Slope()*(budget-w.Pos())
	consider(int64(vAtB), int64(budget), budget, true)
	return SpeedForResetResult{Speed: best, Attained: attained, WitnessDelta: witness, Events: events, Jumps: jumps}, nil
}

// capProbe answers "does this candidate's minimum speedup stay within a
// threshold?" for the stream of closely related sets a design search
// generates. Adjacent bisection candidates differ by one scaling factor
// and usually share their decisive witness Δ, so each query first
// re-evaluates the summed DBF ratio at the previous decision's witness
// Δ — an O(n) rejection certificate: the ratio at any single Δ > 0
// lower-bounds the Theorem-2 supremum, so a point already above the
// threshold rejects the candidate without walking its events. Only
// inconclusive certificates (and every accepted candidate) pay a
// decision, and that decision does not measure the supremum: it is the
// HI-mode QPA (qpaHI), which descends from the point where the tight
// envelope U_HI + B/Δ (B = dbf.Plan.Intercept) meets the cap and checks
// ΣDBF_HI(t) ≤ cap·t at a few integer points. Where QPA does not apply
// (a cap within the utilization bracket, a start point beyond the skip
// horizon, or more than MaxEvents iterations) the probe runs the plain
// warm-started Theorem-2 walk and compares its supremum with the cap.
// Decisions are bit-identical to always walking the full supremum: the
// certificate skips exactly the decisions whose outcome it has proved,
// and QPA is exact.
//
// The LO-mode side of the x searches (MinimalX, which FeasibleXWindow
// starts from) decides its probes the same way, without a capProbe: each
// probe runs SchedulableLO's QPA over the probe's own bracketed horizon.
type capProbe struct {
	opts    Options
	witness task.Time
	// decisions counts the probes the certificate left open (each a QPA
	// decision or a walk, plus every objective walk), pruned the
	// certificate rejections and walks the Theorem-2 walks among the
	// decisions, for tests to assert pruning happens and to see which
	// path decided.
	decisions, pruned, walks int
}

// newCapProbe builds a probe over o, materializing a private Scratch
// when the caller did not bring one so the whole search shares a single
// walker arena.
func newCapProbe(o Options) *capProbe {
	if o.Scratch == nil {
		o.Scratch = new(Scratch)
	}
	return &capProbe{opts: o}
}

// atLeast reports whether the certificate proves s_min ≥ bound for the
// state's current set (strict > when strict is set). An inconclusive
// certificate reports false — it never decides acceptance, only
// rejection.
func (p *capProbe) atLeast(st *dbf.SetState, bound rat.Rat, strict bool) bool {
	if p.witness <= 0 {
		return false
	}
	v := dbf.SetHIMode(st.Tasks(), p.witness)
	c := bound.CmpRatio(int64(v), int64(p.witness))
	if c < 0 || (c == 0 && !strict) {
		p.pruned++
		return true
	}
	return false
}

// speedup runs the full Theorem-2 walk over the searched state and
// refreshes the witness. The previous walk's witness also warm-starts
// the new walk's incumbent pruning (Options.WarmWitness): adjacent
// candidates share their decisive Δ, so even the walks the rejection
// certificate could not avoid start with a near-supremum skip cutoff.
// Sound for any witness — the ratio at one Δ of *this* set lower-bounds
// this set's own supremum — and the result is bit-identical regardless
// (see Options.WarmWitness).
//
// The searches keep one SetState and edit it in place from candidate to
// candidate, so the walk runs minSpeedupState over the state's cached
// aggregates, bit-identical to a cold MinSpeedup of the same set values.
func (p *capProbe) speedup(st *dbf.SetState) (SpeedupResult, error) {
	p.decisions++
	p.walks++
	opts := p.opts
	opts.WarmWitness = p.witness
	res, err := minSpeedupState(st, opts)
	if err == nil && res.WitnessDelta > 0 {
		p.witness = res.WitnessDelta
	}
	return res, err
}

// meets decides s_min ≤ cap for the state's current set: after the
// witness certificate, by the HI-mode QPA over the candidate's plan,
// compiled into the probe's Scratch, and only when QPA cannot decide by
// the warm-started walk (speedup), whose supremum decides exactly. The
// refreshed witness is QPA's witness (see qpaHI) or the walk's; either
// feeds the next certificate and warm start, whose soundness holds for
// any position.
func (p *capProbe) meets(st *dbf.SetState, cap rat.Rat) (bool, error) {
	if p.atLeast(st, cap, true) {
		return false, nil
	}
	plan := &p.opts.Scratch.plan
	plan.Compile(st.Tasks(), dbf.KindDBF)
	uLo, uHi := st.UtilBounds(task.HI)
	if ok, decided, witness := qpaHI(plan, cap, uLo, uHi, p.opts.maxEvents()); decided {
		p.decisions++
		if witness > 0 {
			p.witness = witness
		}
		return ok, nil
	}
	res, err := p.speedup(st)
	if err != nil {
		return false, err
	}
	return res.Speedup.Cmp(cap) <= 0, nil
}

// MinimalY finds the smallest uniform service-degradation factor y ≥ 1
// (eq. (14)) such that the degraded set's minimum HI-mode speedup does
// not exceed speedCap. HI-criticality virtual deadlines are kept as they
// are in s — apply MinimalX or ShortenHIDeadlines first. It returns the
// factor and the degraded set.
//
// Degrading more (larger y) only enlarges the LO tasks' HI-mode periods
// and deadlines, which lowers their demand curves pointwise, so
// feasibility is monotone in y and a binary search over the grid
// y = k/T_max (realizing every floor(y·T), floor(y·D) combination) is
// exact up to the configured ceiling. If even terminating the LO tasks
// (the y → ∞ limit of the demand) misses the cap, no y exists and an
// error is returned.
func MinimalY(s task.Set, speedCap rat.Rat) (rat.Rat, task.Set, error) {
	return MinimalYOpts(s, speedCap, Options{})
}

// MinimalYOpts is MinimalY with explicit walk options. The search probes
// O(log) candidate degradations through a witness-warm-started capProbe:
// rejected candidates are usually dismissed by the O(n) certificate at
// the previous decisive Δ instead of a full event walk. Candidates are
// not materialized: a single dbf.SetState carries the analyzed demand
// structure from candidate to candidate, and each transition applies one
// atomic {D(HI), T(HI)} edit per LO task — consecutive candidates differ
// in nothing else, so the set probed at step k is exactly
// DegradeLO(s, k/q) and its HI aggregates are refolded once per probe.
func MinimalYOpts(s task.Set, speedCap rat.Rat, o Options) (rat.Rat, task.Set, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, nil, err
	}
	if speedCap.Sign() <= 0 {
		return rat.Rat{}, nil, fmt.Errorf("core: speed cap %v must be positive", speedCap)
	}
	o, borrowed := borrowScratch(o)
	defer releaseScratch(borrowed)
	return minimalY(s, speedCap, newCapProbe(o))
}

// minimalY is MinimalYOpts' search over the valid set s, probing every
// candidate through probe.
func minimalY(s task.Set, speedCap rat.Rat, probe *capProbe) (rat.Rat, task.Set, error) {
	// The LO tasks to degrade; their LO-mode parameters never change, so
	// each candidate's floor(y·D(LO)), floor(y·T(LO)) values derive from
	// these captured originals exactly as DegradeLO computes them.
	type loTask struct {
		name   string
		dLO, t task.Time
	}
	var los []loTask
	for i := range s {
		if s[i].Crit == task.LO {
			los = append(los, loTask{s[i].Name, s[i].Deadline[task.LO], s[i].Period[task.LO]})
		}
	}
	st, err := dbf.NewSetState(s)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	if len(los) == 0 {
		ok, err := probe.meets(st, speedCap)
		if err != nil {
			return rat.Rat{}, nil, err
		}
		if !ok {
			return rat.Rat{}, nil, fmt.Errorf("core: no LO tasks to degrade and s_min exceeds %v", speedCap)
		}
		return rat.One, s.Clone(), nil
	}
	// One preallocated two-parameter edit, reused for every transition:
	// D(HI) and T(HI) move together atomically (their intermediate
	// states could violate the constrained-deadline invariant).
	e := task.Edit{Op: task.OpSet, Params: []task.ParamValue{{Param: task.ParamDHI}, {Param: task.ParamTHI}}}
	degrade := func(name string, d, t task.Time) error {
		e.Name = name
		e.Params[0].Value = d
		e.Params[1].Value = t
		return st.Apply(e)
	}

	// Feasibility ceiling: termination is the demand limit of y → ∞.
	for _, lt := range los {
		if err := degrade(lt.name, task.Unbounded, task.Unbounded); err != nil {
			return rat.Rat{}, nil, err
		}
	}
	if ok, err := probe.meets(st, speedCap); err != nil {
		return rat.Rat{}, nil, err
	} else if !ok {
		return rat.Rat{}, nil, fmt.Errorf("core: even terminating LO tasks needs more than %v speedup", speedCap)
	}
	// Every finite y adds Σ_LO C(HI)/⌊y·T⌋ > 0 to the terminated U_HI,
	// and s_min ≥ U_HI. Termination met the cap, so U_HI ≤ cap there;
	// at equality every finite candidate misses the cap, and the search
	// below would double y to its ceiling only to report that.
	if st.Tasks().UtilCmp(task.HI, speedCap) == 0 {
		return rat.Rat{}, nil, errNoFiniteY(speedCap)
	}

	// Granularity: y = k/q with q = max LO-task period realizes every
	// reachable (floor(y·T), floor(y·D)) vector.
	var q task.Time
	for _, lt := range los {
		if lt.t > q {
			q = lt.t
		}
	}
	// degradeK moves the state to candidate k — the same floor/clamp
	// arithmetic as task.Set.DegradeLO, per LO task: ⌊(k/q)·T⌋ = ⌊k·T/q⌋,
	// taken in 128 bits.
	degradeK := func(k int64) error {
		for _, lt := range los {
			d := floorMulDiv(task.Time(k), lt.dLO, q)
			t := floorMulDiv(task.Time(k), lt.t, q)
			if d > t {
				d = t // keep deadlines constrained after rounding
			}
			if err := degrade(lt.name, d, t); err != nil {
				return err
			}
		}
		return nil
	}
	meetsK := func(k int64) (bool, error) {
		if err := degradeK(k); err != nil {
			return false, err
		}
		return probe.meets(st, speedCap)
	}

	// y = 1 might already suffice.
	if ok, err := meetsK(int64(q)); err != nil {
		return rat.Rat{}, nil, err
	} else if ok {
		return rat.One, st.Tasks().Clone(), nil
	}

	// Exponential search for a feasible ceiling, then bisect.
	loK, hiK := int64(q), int64(q)*2
	for {
		ok, err := meetsK(hiK)
		if err != nil {
			return rat.Rat{}, nil, err
		}
		if ok {
			break
		}
		loK = hiK
		hiK *= 2
		if hiK > int64(q)*(1<<20) {
			// Termination met the cap but no finite grid y does within
			// the ceiling: the demand converges to the termination
			// limit only in the y → ∞ limit for this set.
			return rat.Rat{}, nil, errNoFiniteY(speedCap)
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
	// Rebuild the winner as a caller-owned set. DegradeLO is
	// deterministic and matches degradeK's arithmetic, so this is the
	// same set the bisection accepted at hiK.
	bestSet, err := s.DegradeLO(rat.New(hiK, int64(q)))
	if err != nil {
		return rat.Rat{}, nil, err
	}
	return rat.New(hiK, int64(q)), bestSet, nil
}

// errNoFiniteY is MinimalY's error for a set whose terminated LO tasks
// meet the cap but no finite degradation factor does.
func errNoFiniteY(speedCap rat.Rat) error {
	return fmt.Errorf("core: no finite degradation factor up to 2^20 meets %v", speedCap)
}

// FeasibleXWindow computes the design freedom in the overrun-preparation
// factor x for a given HI-mode speed cap: the smallest x keeping LO mode
// schedulable (more preparation than that starves the LO-mode demand
// test) and the largest x keeping the HI-mode speedup within the cap
// (less preparation than that leaves too much carry-over urgency). Any
// grid point in [XLo, XHi] is a valid configuration; an error is returned
// when the window is empty. Degradation (eq. (14)) must already be
// applied to s if desired.
func FeasibleXWindow(s task.Set, speedCap rat.Rat) (xLo, xHi rat.Rat, err error) {
	return FeasibleXWindowOpts(s, speedCap, Options{})
}

// FeasibleXWindowOpts is FeasibleXWindow with explicit walk options;
// like MinimalYOpts it prunes rejected bisection candidates through the
// witness certificate and carries one dbf.SetState across the bisection
// instead of materializing each candidate: consecutive candidates differ
// only in the HI tasks' LO-mode virtual deadlines, and a D(LO) edit
// leaves every cached HI-mode aggregate (utilization bounds,
// hyperperiod) valid, so each probe pays only its compiled plan and its
// decision.
func FeasibleXWindowOpts(s task.Set, speedCap rat.Rat, o Options) (xLo, xHi rat.Rat, err error) {
	if speedCap.Sign() <= 0 {
		return rat.Rat{}, rat.Rat{}, fmt.Errorf("core: speed cap %v must be positive", speedCap)
	}
	xLo, _, err = MinimalX(s)
	if err != nil {
		return rat.Rat{}, rat.Rat{}, err
	}
	// The HI tasks' fixed parameters, from which every candidate's
	// virtual deadline d derives exactly as ShortenHIDeadlines computes it.
	type hiTask struct {
		name        string
		cLO, dHI, d task.Time
	}
	var his []hiTask
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI {
			his = append(his, hiTask{name: s[i].Name, cLO: s[i].WCET[task.LO], dHI: s[i].Deadline[task.HI]})
			dMax = max(dMax, s[i].Deadline[task.HI])
		}
	}
	if len(his) == 0 {
		return xLo, xLo, nil
	}
	o, borrowed := borrowScratch(o)
	defer releaseScratch(borrowed)
	probe := newCapProbe(o)
	st, err := dbf.NewSetState(s)
	if err != nil {
		return rat.Rat{}, rat.Rat{}, err
	}
	e := task.Edit{Op: task.OpSet, Params: []task.ParamValue{{Param: task.ParamDLO}}}
	meets := func(k int64) (bool, error) {
		// Mirror ShortenHIDeadlines' per-task floor/clamp arithmetic
		// (⌊(k/dMax)·D(HI)⌋ = ⌊k·D(HI)/dMax⌋, taken in 128 bits),
		// including its all-or-nothing error semantics: a candidate that
		// leaves some task no room is rejected before the state is
		// touched (the cold path never built such a set either).
		for i := range his {
			ht := &his[i]
			d := floorMulDiv(task.Time(k), ht.dHI, dMax)
			if d < ht.cLO {
				d = ht.cLO
			}
			if d >= ht.dHI {
				d = ht.dHI - 1
			}
			if d <= 0 {
				return false, nil
			}
			ht.d = d
		}
		for _, ht := range his {
			e.Name = ht.name
			e.Params[0].Value = ht.d
			if err := st.Apply(e); err != nil {
				return false, err
			}
		}
		return probe.meets(st, speedCap)
	}

	// Increasing x raises the HI-mode demand pointwise, so the set of
	// cap-respecting k is downward-closed: binary search for the largest
	// feasible k. Re-anchor xLo on the k/dMax grid first (MinimalX
	// already returns that form, but guard against other denominators).
	kLo := xLo.MulInt(int64(dMax)).Ceil()
	ok, err := meets(kLo)
	if err != nil {
		return rat.Rat{}, rat.Rat{}, err
	}
	if !ok {
		return rat.Rat{}, rat.Rat{}, fmt.Errorf(
			"core: no overrun preparation satisfies both LO mode and a %v speed cap", speedCap)
	}
	lo, hi := kLo, int64(dMax)-1
	okHi, err := meets(hi)
	if err != nil {
		return rat.Rat{}, rat.Rat{}, err
	}
	if okHi {
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
