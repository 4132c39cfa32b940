package core

import (
	"fmt"
	"strings"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Report bundles every analysis of the paper for one concrete
// configuration — the one-stop answer to "is this system safe, how fast
// must it turbo, and how quickly is it back to normal?".
type Report struct {
	// Set is the analyzed configuration (after any transforms the
	// caller applied).
	Set task.Set
	// Speed is the HI-mode speed factor the resetting-time entries are
	// computed for.
	Speed rat.Rat

	// SchedulableLO is the exact LO-mode processor-demand verdict.
	SchedulableLO bool
	// Speedup is the Theorem-2 result (exact s_min or safe bound).
	Speedup SpeedupResult
	// SchedulableHI reports Speed ≥ s_min.
	SchedulableHI bool
	// Reset is the Corollary-5 result at Speed.
	Reset ResetResult
	// ClosedSpeedup and ClosedReset are the Lemma-6/7 bounds.
	ClosedSpeedup, ClosedReset rat.Rat
	// UtilLO and UtilHI are the per-mode utilizations.
	UtilLO, UtilHI rat.Rat
}

// Analyze runs the complete analysis suite on the set at the given
// HI-mode speed: the report over one fresh demand state, whose private
// copy of s becomes the report's Set.
func Analyze(s task.Set, speed rat.Rat) (Report, error) {
	st, err := dbf.NewSetState(s)
	if err != nil {
		return Report{}, err
	}
	if err := validateSpeed(speed); err != nil {
		return Report{}, err
	}
	sp, err := minSpeedupState(st, Options{})
	if err != nil {
		return Report{}, err
	}
	return analyzeState(st, speed, sp, Options{})
}

// analyzeState is the one report body behind Analyze and Session: every
// entry over the state's cached aggregates, given the Theorem-2 result sp
// the caller computed (cold, or over a Session's curve or warm walk).
// The report's Set is the state's live set; a caller that keeps editing
// the state must clone it.
func analyzeState(st *dbf.SetState, speed rat.Rat, sp SpeedupResult, o Options) (Report, error) {
	r := Report{
		Set:           st.Tasks(),
		Speed:         speed,
		SchedulableLO: st.LOSched(schedulableLO),
		Speedup:       sp,
		SchedulableHI: speed.Cmp(sp.Speedup) >= 0,
		UtilLO:        st.Util(task.LO),
		UtilHI:        st.Util(task.HI),
	}
	_, uHI := st.UtilBounds(task.HI)
	var err error
	r.Reset, err = resetTimeWalk(st.Tasks(), speed, uHI, o)
	if err != nil {
		return Report{}, err
	}
	r.ClosedSpeedup = st.SigmaBound()
	r.ClosedReset = closedFormResetOf(st.TotalCHI(), speed, r.ClosedSpeedup)
	return r, nil
}

// Safe reports whether the configuration is safe end to end at the
// report's speed: schedulable in LO mode and, should any overrun occur,
// schedulable in HI mode under the temporary speedup.
func (r Report) Safe() bool { return r.SchedulableLO && r.SchedulableHI }

// Render emits the report as fixed-width text.
func (r Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Set.Table())
	fmt.Fprintf(&b, "U(LO) = %.4f   U(HI) = %.4f\n", r.UtilLO.Float64(), r.UtilHI.Float64())
	fmt.Fprintf(&b, "LO-mode EDF schedulable:  %v\n", r.SchedulableLO)
	exact := ""
	if !r.Speedup.Exact {
		exact = fmt.Sprintf(" (safe bound; ≥ %v)", r.Speedup.LowerBound)
	}
	fmt.Fprintf(&b, "minimum HI-mode speedup:  s_min = %v (%.4f)%s, witness Δ = %d\n",
		r.Speedup.Speedup, r.Speedup.Speedup.Float64(), exact, r.Speedup.WitnessDelta)
	fmt.Fprintf(&b, "  Lemma-6 closed form:    %v\n", r.ClosedSpeedup)
	fmt.Fprintf(&b, "HI-mode schedulable at s = %v: %v\n", r.Speed, r.SchedulableHI)
	fmt.Fprintf(&b, "service resetting time:   Δ_R = %v ticks\n", r.Reset.Reset)
	fmt.Fprintf(&b, "  Lemma-7 closed form:    %v ticks\n", r.ClosedReset)
	fmt.Fprintf(&b, "SAFE (LO + HI under temporary speedup): %v\n", r.Safe())
	return b.String()
}
