package core

import (
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// ClosedFormSpeedup is the Lemma-6 closed-form upper bound on the minimum
// HI-mode speedup: the sum Σ_i σ_i of the per-task demand-curve slopes
// (dbf.TaskSigma). Each σ_i is the exact per-task supremum, so the bound
// is tight for singleton sets; summing ignores that the per-task suprema
// are attained at different interval lengths, which is exactly the
// looseness Lemma 6 trades for a closed form. With the uniform
// implicit-deadline scalings of eqs. (13)–(14) (gap_HI = (1−x)·T,
// gap_LO = (y−1)·T) the bound expands to the paper's eq. (15) shape
//
//	Σ_HI max{U_i(HI), (U_i(HI)−U_i(LO))/(1−x), U_i(HI)/((1−x)+U_i(LO))}
//	+ Σ_LO U_i(LO)/((y−1)+U_i(LO))
//
// and is monotone increasing in x and decreasing in y, matching the
// paper's Fig. 4a. It is +Inf when some σ_i is, and the sum rounded up
// onto the 2^-20 grid when its denominator is larger (dbf.SigmaBound).
func ClosedFormSpeedup(s task.Set) rat.Rat { return dbf.SigmaBound(s) }

// ClosedFormReset is the Lemma-7 closed-form upper bound on the service
// resetting time,
//
//	Δ_R ≤ Σ_i C_i(HI) / (s − s_min),                          (eq. (16))
//
// with s_min the Lemma-6 closed form. It is +Inf when s ≤ s_min. The bound
// is sound because ADB_HI(τ_i, Δ) ≤ DBF_HI(τ_i, Δ) + C_i(HI) pointwise
// (the arrived-demand window never opens earlier than the deadline-based
// one, and the job term counts exactly one extra C(HI)), so the arrived
// demand stays below s·Δ from Δ = ΣC(HI)/(s − Σσ) on. Terminated tasks
// still contribute C_i(HI) to the numerator: their carry-over job must
// drain before the processor idles.
func ClosedFormReset(s task.Set, speed rat.Rat) rat.Rat {
	return closedFormResetOf(s.TotalCHI(), speed, ClosedFormSpeedup(s))
}

// closedFormResetOf is eq. (16) given ΣC(HI) and the Lemma-6 closed-form
// speedup smin.
func closedFormResetOf(totalCHI task.Time, speed, smin rat.Rat) rat.Rat {
	if smin.IsInf() || speed.Cmp(smin) <= 0 {
		return rat.PosInf
	}
	return rat.FromInt64(int64(totalCHI)).Div(speed.Sub(smin))
}
