// Package mcspeedup is a library for mixed-criticality real-time
// scheduling with temporary processor speedup, implementing
//
//	P. Huang, P. Kumar, G. Giannopoulou, L. Thiele:
//	"Run and Be Safe: Mixed-Criticality Scheduling with Temporary
//	Processor Speedup", DATE 2015.
//
// Dual-criticality sporadic task sets are scheduled by EDF on a
// uniprocessor. When a HI-criticality task overruns its optimistic WCET
// the system enters HI mode; instead of (or in addition to) degrading or
// terminating LO-criticality tasks, the processor is temporarily sped up
// (DVFS overclocking). The library computes
//
//   - the exact minimum HI-mode speedup factor s_min that guarantees all
//     deadlines (Theorem 2) — MinSpeedup;
//   - the exact service resetting time Δ_R after which the processor is
//     provably idle and can return to LO mode and nominal speed
//     (Theorem 4 / Corollary 5) — ResetTime;
//   - closed-form trade-off bounds for the implicit-deadline special case
//     (Lemmas 6, 7) — ClosedFormSpeedup, ClosedFormReset;
//   - the LO-mode EDF processor-demand test and the minimal
//     virtual-deadline preparation factor — SchedulableLO, MinimalX;
//   - the classical EDF-VD baseline (Baruah et al., ECRTS 2012) —
//     EDFVDAnalyze;
//
// and ships an exact-arithmetic discrete-event simulator of the runtime
// protocol (Simulate), random task-set generators following the paper's
// experimental setup (Generator), the reconstructed flight-management-
// system case study (FMSTasks), and drivers regenerating every table and
// figure of the paper's evaluation (the Experiment* functions).
//
// # Quick start
//
//	set := mcspeedup.Set{
//	    mcspeedup.NewHITask("ctrl", 10, 6, 9, 2, 4),
//	    mcspeedup.NewLOTask("log", 10, 10, 2),
//	}
//	sp, _ := mcspeedup.MinSpeedup(set)       // exact rational s_min
//	rt, _ := mcspeedup.ResetTime(set, sp.Speedup)
//
// All analysis is exact: times are integer ticks and every derived
// quantity is an integer ratio (Rat). See examples/ for runnable
// programs and DESIGN.md for the system inventory.
package mcspeedup

import (
	"math/rand"

	"mcspeedup/internal/adaptive"
	"mcspeedup/internal/core"
	"mcspeedup/internal/edfvd"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/fleet"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// --- task model ---

// Time is a duration or instant in integer ticks (the experiment drivers
// use 1 tick = 100 µs).
type Time = task.Time

// Unbounded marks an infinite period/deadline (terminated LO tasks).
const Unbounded = task.Unbounded

// Crit is a criticality level (and operating mode): LO or HI.
type Crit = task.Crit

// Criticality levels / operating modes.
const (
	LO = task.LO
	HI = task.HI
)

// Task is one dual-criticality sporadic task (Section II of the paper).
type Task = task.Task

// Set is a task set scheduled together on one processor.
type Set = task.Set

// NewHITask builds a HI-criticality task: period T, virtual (LO-mode)
// deadline dLO < real deadline dHI, and WCETs cLO ≤ cHI.
func NewHITask(name string, period, dLO, dHI, cLO, cHI Time) Task {
	return task.NewHI(name, period, dLO, dHI, cLO, cHI)
}

// NewLOTask builds a LO-criticality task with identical parameters in
// both modes (no degradation); use Set.DegradeLO or Set.TerminateLO for
// the eq. (14)/(3) transforms.
func NewLOTask(name string, period, deadline, wcet Time) Task {
	return task.NewLO(name, period, deadline, wcet)
}

// NewImplicitHITask and NewImplicitLOTask build the implicit-deadline
// tasks of the Section-V special case.
func NewImplicitHITask(name string, period, cLO, cHI Time) Task {
	return task.NewImplicitHI(name, period, cLO, cHI)
}

// NewImplicitLOTask builds an implicit-deadline LO task.
func NewImplicitLOTask(name string, period, wcet Time) Task {
	return task.NewImplicitLO(name, period, wcet)
}

// ParseSetJSON decodes and validates a task set from JSON.
func ParseSetJSON(data []byte) (Set, error) { return task.ParseJSON(data) }

// --- exact rationals ---

// Rat is an exact rational number; every analysis result is one.
type Rat = rat.Rat

// NewRat returns the normalized rational num/den.
func NewRat(num, den int64) Rat { return rat.New(num, den) }

// RatFromFloat converts a float to the nearest rational with bounded
// denominator (use for user-supplied speed factors).
func RatFromFloat(f float64) Rat { return rat.FromFloat(f, 1<<24) }

// Handy rational constants.
var (
	RatZero   = rat.Zero
	RatOne    = rat.One
	RatTwo    = rat.Two
	RatPosInf = rat.PosInf
)

// --- analysis (the paper's contribution) ---

// SpeedupResult is the Theorem-2 outcome; see MinSpeedup.
type SpeedupResult = core.SpeedupResult

// AnalysisOptions tunes the pseudo-polynomial event walks: an event
// budget (MaxEvents), a reusable walker arena (Scratch) and a warm-start
// position for the Theorem-2 walk's skip cutoff (WarmWitness). Scratch
// and WarmWitness never change an answer; a MaxEvents budget that runs
// out yields a safe inexact result or an error.
type AnalysisOptions = core.Options

// AnalysisScratch is a reusable walker arena: thread one through
// AnalysisOptions.Scratch when calling the analyses in a tight loop and
// every walk reuses the same storage, making steady-state calls
// allocation-free. Not safe for concurrent use — give each goroutine its
// own. The zero value is ready to use; without one, the analyses fall
// back to a package-level pool that is concurrency-safe and still
// allocation-free in steady state.
type AnalysisScratch = core.Scratch

// MinSpeedup computes the minimum HI-mode processor speedup factor
// s_min = sup_Δ ΣDBF_HI(τ_i, Δ)/Δ of Theorem 2, exactly.
func MinSpeedup(s Set) (SpeedupResult, error) { return core.MinSpeedup(s) }

// MinSpeedupOpts is MinSpeedup with explicit walk options.
func MinSpeedupOpts(s Set, o AnalysisOptions) (SpeedupResult, error) {
	return core.MinSpeedupOpts(s, o)
}

// ResetResult is the Corollary-5 outcome; see ResetTime.
type ResetResult = core.ResetResult

// ResetTime computes the exact service resetting time Δ_R of Corollary 5
// for the given HI-mode speed factor (+Inf when speed does not exceed the
// HI-mode utilization).
func ResetTime(s Set, speed Rat) (ResetResult, error) { return core.ResetTime(s, speed) }

// ResetTimeOpts is ResetTime with explicit walk options.
func ResetTimeOpts(s Set, speed Rat, o AnalysisOptions) (ResetResult, error) {
	return core.ResetTimeOpts(s, speed, o)
}

// SchedulableLO is the exact LO-mode EDF processor-demand test.
func SchedulableLO(s Set) (bool, error) { return core.SchedulableLO(s) }

// SchedulableHI reports HI-mode EDF schedulability at the given speed.
func SchedulableHI(s Set, speed Rat) (bool, error) { return core.SchedulableHI(s, speed) }

// MinimalX finds the smallest uniform overrun-preparation factor x
// (eq. (13)) keeping the set LO-mode schedulable and returns it with the
// transformed set.
func MinimalX(s Set) (Rat, Set, error) { return core.MinimalX(s) }

// ClosedFormSpeedup is the Lemma-6 closed-form upper bound on s_min.
func ClosedFormSpeedup(s Set) Rat { return core.ClosedFormSpeedup(s) }

// ClosedFormReset is the Lemma-7 closed-form upper bound on Δ_R.
func ClosedFormReset(s Set, speed Rat) Rat { return core.ClosedFormReset(s, speed) }

// SustainableOverrunGap implements the Section-IV remark: speedup
// episodes recur at frequency at most 1/tO provided Δ_R ≤ tO.
func SustainableOverrunGap(reset Rat, tO Time) bool {
	return core.SustainableOverrunGap(reset, tO)
}

// --- design-space solvers (the Section-V trade-offs, inverted) ---

// SpeedForResetResult is the outcome of MinSpeedForReset.
type SpeedForResetResult = core.SpeedForResetResult

// MinSpeedForReset computes the infimum HI-mode speed whose service
// resetting time meets the budget ("what speed gets me back to nominal
// within 5 s?"); see SpeedForResetResult.Attained for the open-infimum
// case.
func MinSpeedForReset(s Set, budget Time) (SpeedForResetResult, error) {
	return core.MinSpeedForReset(s, budget)
}

// MinSpeedForResetOpts is MinSpeedForReset with explicit walk options;
// with a Scratch, sweeping many budgets over one set is allocation-free.
func MinSpeedForResetOpts(s Set, budget Time, o AnalysisOptions) (SpeedForResetResult, error) {
	return core.MinSpeedForResetOpts(s, budget, o)
}

// MinimalY finds the smallest uniform service-degradation factor y
// (eq. (14)) whose minimum HI-mode speedup fits under speedCap ("my
// platform turbo-boosts at most 2×; how little degradation suffices?").
func MinimalY(s Set, speedCap Rat) (Rat, Set, error) {
	return core.MinimalY(s, speedCap)
}

// MinimalYOpts is MinimalY with explicit walk options. Candidate
// degradations are screened by a witness certificate at the previous
// decisive Δ before paying a full event walk; results are bit-identical
// to walking every candidate.
func MinimalYOpts(s Set, speedCap Rat, o AnalysisOptions) (Rat, Set, error) {
	return core.MinimalYOpts(s, speedCap, o)
}

// FeasibleXWindow computes the interval of overrun-preparation factors x
// that keep LO mode schedulable (lower end) while respecting a HI-mode
// speed cap (upper end).
func FeasibleXWindow(s Set, speedCap Rat) (xLo, xHi Rat, err error) {
	return core.FeasibleXWindow(s, speedCap)
}

// FeasibleXWindowOpts is FeasibleXWindow with explicit walk options
// (witness-certificate pruning like MinimalYOpts).
func FeasibleXWindowOpts(s Set, speedCap Rat, o AnalysisOptions) (xLo, xHi Rat, err error) {
	return core.FeasibleXWindowOpts(s, speedCap, o)
}

// --- EDF-VD baseline ---

// EDFVDResult is the EDF-VD analysis outcome.
type EDFVDResult = edfvd.Result

// EDFVDAnalyze runs the classical EDF-VD utilization test (Baruah et al.,
// ECRTS 2012) on an implicit-deadline set.
func EDFVDAnalyze(s Set) (EDFVDResult, error) { return edfvd.Analyze(s) }

// EDFVDTransform materializes an accepted EDF-VD configuration as a
// task set (virtual deadlines applied, LO tasks terminated).
func EDFVDTransform(s Set, r EDFVDResult) (Set, error) { return edfvd.Transform(s, r) }

// --- simulation ---

// SimConfig selects the runtime policy for a simulation run.
type SimConfig = sim.Config

// SimResult aggregates a simulation run.
type SimResult = sim.Result

// Arrival, Workload and the workload builders describe job releases.
type (
	Arrival  = sim.Arrival
	Workload = sim.Workload
)

// OverrunFn decides per released HI job whether it overruns.
type OverrunFn = sim.OverrunFn

// Workload builders.
var (
	NoOverrun     = sim.NoOverrun
	AlwaysOverrun = sim.AlwaysOverrun
)

// SynchronousPeriodic builds the synchronous periodic workload.
func SynchronousPeriodic(s Set, horizon Time, overrun OverrunFn) Workload {
	return sim.SynchronousPeriodic(s, horizon, overrun)
}

// RandomSporadic builds a random sporadic workload with overruns.
func RandomSporadic(rnd *rand.Rand, s Set, horizon Time, overrunProb float64) Workload {
	return sim.RandomSporadic(rnd, s, horizon, overrunProb)
}

// BurstOverruns builds the Section-IV burst pattern: sporadic releases
// with overruns separated by at least gap.
func BurstOverruns(rnd *rand.Rand, s Set, horizon, gap Time) Workload {
	return sim.BurstOverruns(rnd, s, horizon, gap)
}

// JobRecord and TaskResponse expose per-job completion records
// (SimConfig.CollectJobs) and their per-task aggregation.
type (
	JobRecord    = sim.JobRecord
	TaskResponse = sim.TaskResponse
)

// ResponseStats aggregates per-job records by task.
func ResponseStats(s Set, res *SimResult) []TaskResponse { return sim.ResponseStats(s, res) }

// ResponseTable renders per-task response statistics as text.
func ResponseTable(s Set, res *SimResult) string { return sim.ResponseTable(s, res) }

// Simulate runs the discrete-event EDF simulator with mode switching and
// temporary speedup on the given workload.
func Simulate(s Set, w Workload, cfg SimConfig) (*SimResult, error) {
	return sim.Run(s, w, cfg)
}

// SimScratch is the reusable simulation arena: thread one through
// CompiledSim.RunInto to keep tight simulation loops allocation-free.
type SimScratch = sim.Scratch

// CompiledSim is a pre-validated (task set, workload) pair whose RunInto
// reuses caller-owned Result and SimScratch buffers — the
// zero-allocation entry point behind Simulate.
type CompiledSim = sim.Compiled

// CompileSim validates the set and workload once for repeated RunInto
// calls.
func CompileSim(s Set, w Workload) (*CompiledSim, error) { return sim.Compile(s, w) }

// CompileSimSet validates the set alone, for callers generating a fresh
// workload per run (CompiledSim.RunWorkload).
func CompileSimSet(s Set) (*CompiledSim, error) { return sim.CompileSet(s) }

// FleetParams configures a Monte-Carlo fleet: N sampled-ACET simulation
// runs reduced into streaming aggregates, byte-identical for any worker
// count.
type FleetParams = fleet.Params

// FleetSummary is the merged fleet aggregate (JSON and fig-style table
// renderings included).
type FleetSummary = fleet.Summary

// ACETModel is the per-job actual-execution-time sampling model by
// criticality band; the zero value means DefaultACET.
type ACETModel = gen.ACET

// DefaultACET returns the fleet experiments' execution-time model.
func DefaultACET() ACETModel { return gen.DefaultACET() }

// RunFleet executes a Monte-Carlo fleet and returns the merged summary.
func RunFleet(p FleetParams) (*FleetSummary, error) { return fleet.Run(p) }

// Gantt renders a simulation trace (CollectTrace must have been set).
func Gantt(s Set, res *SimResult, width int) string { return sim.Gantt(s, res, width) }

// --- workload generation & case studies ---

// Generator configures the random task-set generator of the paper's
// experimental section (reference [4]'s protocol).
type Generator = gen.Params

// DefaultGenerator returns the Fig. 6 caption parameters (periods
// 2 ms–2 s, per-task U(LO) ∈ [0.01, 0.2], γ ∈ [1, 3]).
func DefaultGenerator() Generator { return gen.Defaults() }

// TicksPerMS converts between milliseconds and ticks in the experiment
// scale (1 tick = 100 µs).
const TicksPerMS = gen.TicksPerMS

// FMSTasks returns the reconstructed industrial flight-management-system
// task set (7 DO-178B level-B + 4 level-C tasks) with WCET uncertainty γ.
func FMSTasks(gamma Rat) (Set, error) { return fms.Tasks(gamma) }

// TableISet returns the paper's running example (Table I).
func TableISet() Set { return examplesets.TableI() }

// TableISetDegraded returns the Example-1 degraded variant.
func TableISetDegraded() Set { return examplesets.TableIDegraded() }

// ExportSimJSON serializes a simulation run (episodes, misses, per-job
// records, trace segments) as indented JSON with exact rational instants.
func ExportSimJSON(s Set, res *SimResult) ([]byte, error) { return sim.ExportJSON(s, res) }

// --- adaptive overclocking governance (the Section-I mechanism) ---

// GovernorBudget models the thermal/power allowance as a token bucket;
// GovernorDecision is one per-episode verdict; Governor makes the
// decisions (full speed → schedulability-floor speed → LO termination).
type (
	GovernorBudget   = adaptive.Budget
	GovernorDecision = adaptive.Decision
	Governor         = adaptive.Governor
)

// TurboBudget builds the bucket for "speed s for at most d ticks from
// full, refilling from empty in rechargeTime ticks" — the Intel-turbo
// style allowance the paper cites.
func TurboBudget(speed Rat, d, rechargeTime Time) GovernorBudget {
	return adaptive.TurboBudget(speed, d, rechargeTime)
}

// NewGovernor validates the configuration (full speed ≥ s_min, feasible
// termination fallback) and returns a per-episode admission governor.
func NewGovernor(s Set, fullSpeed Rat, budget GovernorBudget) (*Governor, error) {
	return adaptive.NewGovernor(s, fullSpeed, budget)
}

// AnalysisReport bundles every analysis for one configuration; see
// AnalyzeSet.
type AnalysisReport = core.Report

// AnalyzeSet runs the complete analysis suite — LO-mode test, Theorem-2
// speedup, Corollary-5 reset, Lemma-6/7 bounds — on the set at the given
// HI-mode speed and returns a renderable report.
func AnalyzeSet(s Set, speed Rat) (AnalysisReport, error) { return core.Analyze(s, speed) }

// MarshalWorkload and ParseWorkload serialize workloads for reproducible
// replay (see mcs-sim -save / -workload).
func MarshalWorkload(w Workload) ([]byte, error) { return sim.MarshalWorkload(w) }

// ParseWorkload decodes a workload JSON file and validates it against
// the task set.
func ParseWorkload(data []byte, s Set) (Workload, error) { return sim.ParseWorkload(data, s) }

// TuneResult is the outcome of TuneDeadlines.
type TuneResult = core.TuneResult

// TuneDeadlines minimizes the required HI-mode speedup over per-task
// virtual-deadline assignments (the non-uniform refinement of eq. (13),
// in the spirit of Ekberg & Yi's demand shaping), subject to exact
// LO-mode schedulability. Pass RatZero for the default step.
func TuneDeadlines(s Set, step Rat) (TuneResult, error) { return core.TuneDeadlines(s, step) }

// TuneDeadlinesOpts is TuneDeadlines with explicit walk options
// (witness-certificate pruning like MinimalYOpts).
func TuneDeadlinesOpts(s Set, step Rat, o AnalysisOptions) (TuneResult, error) {
	return core.TuneDeadlinesOpts(s, step, o)
}

// --- incremental (delta) analysis: edits and sessions ---

// Edit is one task-set edit descriptor: set parameters on a named task
// (atomically, so coupled parameters like D(HI)/T(HI) can move
// together), add a task, or remove one. ParamValue names one parameter
// assignment inside a set-edit.
type (
	Edit       = task.Edit
	ParamValue = task.ParamValue
)

// Edit operations and editable parameters.
const (
	EditSet    = task.OpSet
	EditAdd    = task.OpAdd
	EditRemove = task.OpRemove

	ParamCLO = task.ParamCLO
	ParamCHI = task.ParamCHI
	ParamDLO = task.ParamDLO
	ParamDHI = task.ParamDHI
	ParamTLO = task.ParamTLO
	ParamTHI = task.ParamTHI
)

// SetParam builds the common single-parameter edit.
func SetParam(name, param string, v Time) Edit { return task.SetParam(name, param, v) }

// ApplyEdits applies the edits to a clone of s (all-or-nothing) and
// returns the edited set.
func ApplyEdits(s Set, edits ...Edit) (Set, error) { return s.ApplyEdits(edits...) }

// AnalysisSession is an analyzed task-set state that absorbs Edits and
// re-analyzes incrementally: an edit drops only the cached demand
// aggregates it touches, and the next Report's walks warm-start at the
// prior decisive witness while staying byte-identical to a cold
// AnalyzeSet.
// Not safe for concurrent use.
type AnalysisSession = core.Session

// NewAnalysisSession validates the set and speed and returns a session
// whose first Report performs the cold analysis.
func NewAnalysisSession(s Set, speed Rat) (*AnalysisSession, error) {
	return core.NewSession(s, speed)
}
