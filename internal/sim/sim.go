// Package sim is a discrete-event simulator for preemptive EDF scheduling
// of dual-criticality sporadic task sets on a uniprocessor with dynamic
// speedup, implementing the runtime protocol of the paper:
//
//   - In LO mode the processor runs at unit speed and every job is
//     scheduled by EDF against its LO-mode (virtual) deadline.
//   - The instant a HI-criticality job's executed work reaches C(LO)
//     without completing, the system switches to HI mode: the processor
//     speed becomes the configured speedup factor, carry-over HI jobs
//     revert to their real deadlines (arrival + D(HI)), carry-over jobs
//     of degraded LO tasks have their deadlines extended to
//     arrival + D(HI), and carry-over jobs of terminated LO tasks are
//     killed (or parked at infinite deadline, see Config).
//   - While in HI mode, arrivals of terminated LO tasks are dropped and
//     arrivals of degraded LO tasks are admitted only if spaced at least
//     T(HI) from the task's previously admitted arrival.
//   - At the first processor-idle instant in HI mode the system resets:
//     LO mode, unit speed (the Section-IV runtime rule).
//   - Optionally, if a HI-mode episode exceeds a wall-clock budget
//     (the Section-I Turbo-Boost-style constraint), all LO-criticality
//     work is terminated and the speed returns to 1; the episode still
//     ends at the next idle instant.
//
// Time is exact and integer. The event loop runs on int64 ticks of a grid
// that changes with the speed (rat.Ticks). LO mode is the unit grid: it
// starts at an integer arrival, at speed 1, with integer demands and
// deadlines. At the switch (an integer instant) to speed s = p/q under
// a budget bn/bd, time ticks become 1/(p·bd) and work ticks 1/(q·bd),
// so dt time ticks do exactly dt work ticks and the budget is bn·p
// ticks; after a budget trip, time and work ticks are both 1/(bd·p·q).
// Every grid change is an exact multiplication, and results convert
// back to rat.Rat only when written, as ticks over the unit, so they
// carry the exact rational instants — property tests can assert "no
// deadline missed" without epsilon tolerances. Before a run starts,
// RunWorkload checks that the run's span fits the finest grid in int64
// and returns an error if it does not.
//
// Busy periods without an overrun are not stepped. The exact LO-mode
// processor-demand test (core.SchedulableLO; Easwaran, "Demand-based
// scheduling of mixed-criticality sporadic tasks on one processor")
// proves that when Σ_i DBF_LO(τ_i, Δ) ≤ Δ for every Δ, EDF at unit
// speed meets every LO-mode (virtual) deadline of any job sequence whose
// releases of each task are at least T(LO) apart and whose demands are
// at most C(LO). From an idle LO-mode instant, the jobs that follow form
// such a sequence up to the first overrunning arrival (a HI job whose
// demand exceeds C(LO)). So for a LO-schedulable set the run commits
// each such busy period in one pass: its jobs complete, none misses, and
// it ends at the work-conserving finish f ← max(f, a_j) + c_j. The first
// busy period that holds an overrun goes back to the EDF loop from its
// first arrival. The shortcut needs RunWorkload's valid-by-construction
// precondition, and it is off when the run collects jobs or a trace.
//
// The hot path is allocation-free in steady state: jobs are values in a
// caller-owned Scratch arena (see Scratch), results reuse their buffers
// (see Compiled.RunInto), and validation is paid once per task set via
// Compile rather than once per run.
package sim

import (
	"fmt"
	"math"
	"sort"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Arrival is one job release in a workload: the job of task s[Task]
// arrives at time At and executes for Demand time units (at unit speed).
// For HI-criticality tasks Demand may exceed C(LO) — that is an overrun,
// capped by C(HI). LO-criticality tasks never exceed C(LO) (Section II).
type Arrival struct {
	Task   int
	At     task.Time
	Demand task.Time
}

// Workload is a time-sorted list of arrivals.
type Workload []Arrival

// Validate checks the workload against the model's sporadic constraints:
// demands within the per-criticality WCET caps, non-negative times, and
// per-task inter-arrival separation of at least T(LO).
func (w Workload) Validate(s task.Set) error {
	// last[i] is task i's previous arrival, -1 before its first (arrival
	// times are checked non-negative before last is read).
	last := make([]task.Time, len(s))
	for i := range last {
		last[i] = -1
	}
	prev := task.Time(0)
	for k, a := range w {
		if a.Task < 0 || a.Task >= len(s) {
			return fmt.Errorf("sim: arrival %d references task %d of %d", k, a.Task, len(s))
		}
		if a.At < 0 {
			return fmt.Errorf("sim: arrival %d at negative time %d", k, a.At)
		}
		if a.At < prev {
			return fmt.Errorf("sim: workload not sorted at index %d", k)
		}
		prev = a.At
		tk := &s[a.Task]
		if a.Demand <= 0 {
			return fmt.Errorf("sim: arrival %d has non-positive demand", k)
		}
		if a.Demand > tk.WCET[task.HI] {
			return fmt.Errorf("sim: arrival %d demand %d exceeds C(HI) = %d of task %s",
				k, a.Demand, tk.WCET[task.HI], tk.Name)
		}
		if tk.Crit == task.LO && a.Demand > tk.WCET[task.LO] {
			return fmt.Errorf("sim: arrival %d demand %d exceeds C(LO) of LO task %s",
				k, a.Demand, tk.Name)
		}
		if last[a.Task] >= 0 && a.At-last[a.Task] < tk.Period[task.LO] {
			return fmt.Errorf("sim: task %s arrivals at %d and %d violate T(LO) = %d",
				tk.Name, last[a.Task], a.At, tk.Period[task.LO])
		}
		last[a.Task] = a.At
	}
	return nil
}

// Config selects the runtime policy.
type Config struct {
	// Speedup is the HI-mode processor speed factor s. Must be positive.
	// Use rat.One to simulate a system without dynamic speedup.
	Speedup rat.Rat
	// Budget, if positive, is the maximum wall-clock duration of one
	// HI-mode episode before the fallback kicks in: all LO-criticality
	// work is terminated and the speed returns to 1 (Section I).
	Budget rat.Rat
	// ParkTerminatedCarryOver keeps carry-over jobs of terminated LO
	// tasks in the system at infinite deadline (they drain at lowest
	// priority and delay the reset) instead of killing them at the mode
	// switch. The analytical ADB bound is conservative for both choices.
	ParkTerminatedCarryOver bool
	// StopOnMiss aborts the run at the first deadline miss.
	StopOnMiss bool
	// CollectJobs records a JobRecord for every completed job (see
	// ResponseStats).
	CollectJobs bool
	// CollectTrace records execution segments for Gantt rendering.
	CollectTrace bool
	// CountMissesOnly counts deadline misses in Result.MissCount without
	// keeping a Miss record for each, so an overloaded run's memory does
	// not grow with its misses. Result.Misses then stays empty. The
	// Monte-Carlo fleet, which reads only the count, sets it.
	CountMissesOnly bool
}

// Miss records one deadline miss.
type Miss struct {
	Task     int
	Arrival  task.Time
	Deadline rat.Rat
	// DetectedAt is the simulation instant the miss was detected
	// (the deadline passing, or a tardy completion).
	DetectedAt rat.Rat
}

// Episode records one contiguous HI-mode episode.
type Episode struct {
	Start rat.Rat // mode-switch instant
	End   rat.Rat // reset (idle) instant; equals Start..∞ only if the run ended in HI mode
	// BudgetTripped reports that the episode exceeded Config.Budget and
	// fell back to LO-task termination at nominal speed.
	BudgetTripped bool
	// Ended reports whether the episode actually ended within the run.
	Ended bool
}

// Duration returns End − Start for ended episodes and +Inf otherwise.
func (e Episode) Duration() rat.Rat {
	if !e.Ended {
		return rat.PosInf
	}
	return e.End.Sub(e.Start)
}

// Segment is one maximal interval of the trace during which a single job
// ran at constant speed.
type Segment struct {
	Start, End rat.Rat
	Task       int
	JobSeq     int // per-task job sequence number
	Mode       task.Crit
	Speed      rat.Rat
}

// Result aggregates a simulation run. Results are reusable: passing one
// back into Compiled.RunInto truncates the slices (keeping capacity) and
// overwrites every field, so a caller looping over many runs holds
// buffer growth to the first iteration.
type Result struct {
	Misses []Miss
	// MissCount is the number of deadline misses: len(Misses), or the
	// only record of them under Config.CountMissesOnly.
	MissCount int
	Episodes  []Episode
	Completed int // jobs that ran to completion
	Dropped   int // LO jobs rejected by termination or degraded admission
	Killed    int // carry-over LO jobs killed at a mode switch
	Trace     []Segment
	// Jobs holds per-completion records when Config.CollectJobs is set,
	// ordered by completion time.
	Jobs []JobRecord
	// EndTime is the instant the last work finished.
	EndTime rat.Rat
}

// MaxEpisode returns the longest HI-mode episode duration (zero if none).
func (r *Result) MaxEpisode() rat.Rat {
	m := rat.Zero
	for _, e := range r.Episodes {
		m = rat.Max(m, e.Duration())
	}
	return m
}

// reset truncates the slices (retaining capacity) and zeroes the
// counters, readying r for the next RunInto.
func (r *Result) reset() {
	r.Misses = r.Misses[:0]
	r.MissCount = 0
	r.Episodes = r.Episodes[:0]
	r.Trace = r.Trace[:0]
	r.Jobs = r.Jobs[:0]
	r.Completed = 0
	r.Dropped = 0
	r.Killed = 0
	r.EndTime = rat.Zero
}

// never is the tick value of an instant no run reaches: the deadline of
// a parked job and the budget expiry while no budget is running.
// rat.Ticks.Fits keeps every real instant below it.
const never = math.MaxInt64

// jobState is a live job instance, stored by value in Scratch.pending so
// the event loop never allocates per job. Its deadline and remaining
// work are on the current phase's tick grid (see Scratch.tu/wu).
type jobState struct {
	deadline int64 // absolute, in time ticks; never for parked jobs
	rem      int64 // remaining work, in work ticks
	// trig is the LO-mode remaining work at which the job's executed
	// work reaches C(LO) — the overrun trigger, demand − C(LO) — or −1
	// for a job that never triggers a switch: a LO-criticality job, a
	// HI job within C(LO), or one whose trigger already fired. LO mode
	// is the unit grid, so it compares with rem directly.
	trig    int64
	arrival task.Time
	taskIdx int32
	seq     int32
	missed  bool
	parked  bool // terminated carry-over kept at infinite deadline
}

// jobLess is the EDF total order: deadline, then arrival, then task
// index. It is total over live jobs (one job per task per arrival), so
// the pick never depends on pending order.
func jobLess(a, b *jobState) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.taskIdx < b.taskIdx
}

// Run simulates the workload on the task set under the given policy and
// returns the collected metrics. The run continues past the last arrival
// until all admitted work has drained, so every admitted job either
// completes or is killed.
//
// Run validates the set and workload on every call and allocates a fresh
// Result; loops over many runs should Compile once and drive RunInto
// with a caller-owned Scratch and reused Result instead.
func Run(s task.Set, w Workload, cfg Config) (*Result, error) {
	c, err := Compile(s, w)
	if err != nil {
		return nil, err
	}
	res := new(Result)
	if err := c.RunInto(res, nil, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// run is the event loop. The caller (Compiled.RunWorkload) has attached
// tasks, cfg, res and the tick grid to the scratch and reset the per-run
// state.
func (sc *Scratch) run(w Workload) {
	idx := 0
	// The run opens idle, before every arrival, so the first busy period
	// starts in the idle branch like every later one.
	sc.now = -1
	for {
		// Admit all arrivals at or before now.
		for idx < len(w) && int64(w[idx].At)*sc.tu <= sc.now {
			sc.admit(w[idx])
			idx++
		}
		if sc.cfg.StopOnMiss && sc.res.MissCount > 0 {
			if sc.mode == task.HI {
				sc.res.Episodes = append(sc.res.Episodes, Episode{
					Start: rat.FromInt64(sc.episodeStart), BudgetTripped: sc.terminatedNow,
				})
			}
			return
		}
		curIdx := sc.edfPick()
		if curIdx < 0 {
			// Processor idle. LO mode resumes on the unit grid at the
			// next (integer) arrival.
			if sc.mode == task.HI {
				sc.reset()
			}
			if sc.skip {
				idx = sc.skipLO(w, idx)
			}
			if idx == len(w) {
				return
			}
			sc.now = int64(w[idx].At)
			continue
		}
		cur := &sc.pending[curIdx]

		// Next boundary. Running dt time ticks does dt work ticks, so the
		// completion is rem ticks away.
		bound := sc.now + cur.rem
		if sc.mode == task.LO && cur.trig >= 0 {
			// The overrun trigger: executed work reaches C(LO), i.e.
			// rem falls to trig.
			bound = min(bound, sc.now+cur.rem-cur.trig)
		}
		if idx < len(w) {
			bound = min(bound, int64(w[idx].At)*sc.tu)
		}
		bound = min(bound, sc.expiry)
		// Deadlines are boundaries so misses are detected the instant
		// they occur, not at the tardy completion.
		for i := range sc.pending {
			if j := &sc.pending[i]; !j.missed && !j.parked && j.deadline > sc.now {
				bound = min(bound, j.deadline)
			}
		}

		// Execute cur on [now, bound].
		// Time never runs backwards, and a reset happens only right after
		// a completion ends an execution step, so the latest execution
		// end is the run's EndTime.
		if dt := bound - sc.now; dt > 0 {
			cur.rem -= dt
			sc.endAt, sc.endUnit = bound, sc.tu
			if sc.cfg.CollectTrace {
				sc.trace(cur, sc.now, bound)
			}
		}
		sc.now = bound

		// Boundary effects, in causal order. complete and switchToHI
		// mutate pending, so cur is dead after either.
		if cur.rem == 0 {
			sc.complete(curIdx)
		} else if sc.mode == task.LO && cur.rem <= cur.trig {
			cur.trig = -1
			sc.switchToHI()
		}
		if sc.mode == task.HI && sc.expiry != never && sc.now >= sc.expiry {
			sc.tripBudget()
		}
		sc.detectMisses()
	}
}

// skipLO commits, from the idle LO-mode instant before w[idx], every
// busy period that holds no overrunning arrival, and returns the index of
// the first arrival it did not commit: the start of the busy period that
// holds the next overrun, or len(w). Only LO-schedulable sets get here
// (Scratch.skip), where such a busy period runs as EDF would run it with
// no miss and no mode switch (see the package comment).
//
// A first pass finds the committed prefix w[idx:start]. It tracks only
// the open busy period's start and finish and the last closed finish.
// A second pass admits exactly the committed arrivals, as EDF would
// (lastAdmitted, seqs). The busy period that holds the overrun is handed
// back to EDF untouched: EDF admits its jobs in LO mode, in the same
// order, before any HI-mode admission reads their lastAdmitted entries.
func (sc *Scratch) skipLO(w Workload, idx int) int {
	start := idx    // first arrival of the open busy period w[start:k]
	var f task.Time // its finish; the period is closed at any arrival at or after f
	end := f        // the finish of the last closed busy period
	cLO := sc.cLO
	k := idx
	for ; k < len(w); k++ {
		a := &w[k]
		if a.At >= f { // a no-op at k = idx, where f = 0
			start, end = k, f
		}
		if a.Demand > cLO[a.Task] {
			break
		}
		f = max(f, a.At) + a.Demand
	}
	if k == len(w) {
		start, end = k, f
	}
	last, seqs := sc.lastAdmitted, sc.seqs
	for _, a := range w[idx:start] {
		last[a.Task] = a.At
		seqs[a.Task]++
	}
	if n := start - idx; n > 0 {
		sc.res.Completed += n
		sc.skipped += n
		sc.endAt, sc.endUnit = int64(end), 1
	}
	return start
}

// instant converts a time-tick value of the current phase to a Rat.
func (sc *Scratch) instant(t int64) rat.Rat { return rat.New(t, sc.tu) }

// deadlineOf is j's absolute deadline as a Rat (+Inf for parked jobs).
func (sc *Scratch) deadlineOf(j *jobState) rat.Rat {
	if j.parked {
		return rat.PosInf
	}
	return sc.instant(j.deadline)
}

// admit applies the arrival-time policy for the current mode.
func (sc *Scratch) admit(a Arrival) {
	tk := &sc.tasks[a.Task]
	mode := sc.mode
	if tk.Crit == task.LO && (mode == task.HI || sc.terminatedNow) {
		if tk.Terminated() || sc.terminatedNow {
			sc.res.Dropped++
			return
		}
		// Degraded service: enforce the enlarged minimum inter-arrival
		// time T(HI) against the last admitted arrival. seqs[i] > 0
		// stands in for the old map's presence bit: both were updated
		// together on every admission.
		if sc.seqs[a.Task] > 0 && a.At-sc.lastAdmitted[a.Task] < tk.Period[task.HI] {
			sc.res.Dropped++
			return
		}
	}
	sc.lastAdmitted[a.Task] = a.At
	sc.seqs[a.Task]++
	trig := int64(-1)
	if tk.Crit == task.HI && a.Demand > tk.WCET[task.LO] {
		trig = int64(a.Demand - tk.WCET[task.LO])
	}
	sc.pending = append(sc.pending, jobState{
		taskIdx:  int32(a.Task),
		seq:      sc.seqs[a.Task],
		arrival:  a.At,
		deadline: int64(a.At+tk.Deadline[mode]) * sc.tu,
		trig:     trig,
		rem:      int64(a.Demand) * sc.wu,
	})
}

// edfPick returns the index of the pending job with the earliest
// deadline (ties by arrival, then task index), or -1 when idle.
func (sc *Scratch) edfPick() int {
	best := -1
	for i := range sc.pending {
		if best < 0 || jobLess(&sc.pending[i], &sc.pending[best]) {
			best = i
		}
	}
	return best
}

// complete retires pending[i] at sc.now.
func (sc *Scratch) complete(i int) {
	j := &sc.pending[i]
	sc.res.Completed++
	if !j.missed && !j.parked && sc.now > j.deadline {
		j.missed = true
		sc.res.MissCount++
		if !sc.cfg.CountMissesOnly {
			sc.res.Misses = append(sc.res.Misses, Miss{
				Task: int(j.taskIdx), Arrival: j.arrival,
				Deadline: sc.instant(j.deadline), DetectedAt: sc.instant(sc.now),
			})
		}
	}
	if sc.cfg.CollectJobs {
		sc.res.Jobs = append(sc.res.Jobs, JobRecord{
			Task: int(j.taskIdx), Seq: int(j.seq), Arrival: j.arrival,
			Completion: sc.instant(sc.now), Deadline: sc.deadlineOf(j), Missed: j.missed,
		})
	}
	sc.pending[i] = sc.pending[len(sc.pending)-1]
	sc.pending = sc.pending[:len(sc.pending)-1]
}

// detectMisses flags pending jobs whose deadline has been reached with
// work remaining (every pending job has remaining work by construction).
func (sc *Scratch) detectMisses() {
	for i := range sc.pending {
		j := &sc.pending[i]
		if !j.missed && !j.parked && sc.now >= j.deadline {
			j.missed = true
			sc.res.MissCount++
			if !sc.cfg.CountMissesOnly {
				d := sc.instant(j.deadline)
				sc.res.Misses = append(sc.res.Misses, Miss{
					Task: int(j.taskIdx), Arrival: j.arrival, Deadline: d, DetectedAt: d,
				})
			}
		}
	}
}

// switchToHI performs the mode-switch protocol and moves the run onto the
// HI grid. The switch happens in LO mode, so now is an integer and every
// conversion is an exact multiplication. The carry-over pass compacts
// pending in place (reads run ahead of writes), preserving the old
// keep-slice order without allocating.
func (sc *Scratch) switchToHI() {
	sc.mode = task.HI
	sc.speed = sc.cfg.Speedup
	sc.episodeStart = sc.now
	sc.tu, sc.wu = sc.ticks.HITime, sc.ticks.HIWork
	sc.now *= sc.tu
	// A budget beyond the grid never trips; expiry stays never.
	if b := sc.ticks.Budget; b > 0 && b < never-sc.now {
		sc.expiry = sc.now + b
	}
	// Re-deadline carry-over jobs.
	keep := sc.pending[:0]
	for i := range sc.pending {
		j := sc.pending[i]
		tk := &sc.tasks[j.taskIdx]
		if tk.Crit == task.LO && tk.Terminated() {
			if !sc.cfg.ParkTerminatedCarryOver {
				sc.res.Killed++
				continue
			}
			j.parked = true
			j.deadline = never
		} else { // HI, or degraded LO
			j.deadline = int64(j.arrival+tk.Deadline[task.HI]) * sc.tu
		}
		j.rem *= sc.wu
		keep = append(keep, j)
	}
	sc.pending = keep
}

// tripBudget applies the Section-I fallback: terminate LO-criticality
// work and restore nominal speed; the episode continues until idle. The
// run moves onto the post-trip grid, where time and work ticks coincide.
func (sc *Scratch) tripBudget() {
	sc.expiry = never
	sc.terminatedNow = true
	sc.speed = rat.One
	sc.now *= sc.ticks.TripTime
	sc.tu *= sc.ticks.TripTime
	sc.wu *= sc.ticks.TripWork
	keep := sc.pending[:0]
	for i := range sc.pending {
		j := sc.pending[i]
		if sc.tasks[j.taskIdx].Crit == task.LO {
			sc.res.Killed++
			continue
		}
		j.deadline *= sc.ticks.TripTime
		j.rem *= sc.ticks.TripWork
		keep = append(keep, j)
	}
	sc.pending = keep
}

// reset returns the system to LO mode at an idle instant. It leaves now
// on the old grid: the caller either ends the run or moves now to the
// next arrival on the unit grid.
func (sc *Scratch) reset() {
	sc.res.Episodes = append(sc.res.Episodes, Episode{
		Start:         rat.FromInt64(sc.episodeStart),
		End:           sc.instant(sc.now),
		BudgetTripped: sc.terminatedNow,
		Ended:         true,
	})
	sc.mode = task.LO
	sc.speed = rat.One
	sc.terminatedNow = false
	sc.expiry = never
	sc.tu, sc.wu = 1, 1
}

// trace records that j ran on [from, to] (Config.CollectTrace).
func (sc *Scratch) trace(j *jobState, from, to int64) {
	start, end := sc.instant(from), sc.instant(to)
	n := len(sc.res.Trace)
	if n > 0 {
		lastSeg := &sc.res.Trace[n-1]
		if lastSeg.Task == int(j.taskIdx) && lastSeg.JobSeq == int(j.seq) &&
			lastSeg.End.Eq(start) && lastSeg.Speed.Eq(sc.speed) && lastSeg.Mode == sc.mode {
			lastSeg.End = end
			return
		}
	}
	sc.res.Trace = append(sc.res.Trace, Segment{
		Start: start, End: end, Task: int(j.taskIdx), JobSeq: int(j.seq), Mode: sc.mode, Speed: sc.speed,
	})
}

// sortMisses orders misses by detection time. The event loop only ever
// appends misses at non-decreasing DetectedAt (deadlines are boundaries,
// so detectMisses fires at DetectedAt == now, and tardy completions
// record DetectedAt == now too), so the scan almost always finds the
// slice sorted and skips the closure-allocating sort.Slice. When it does
// sort, the call is identical to the historical unconditional one; on
// already-sorted input that sort was a no-op permutation, so skipping it
// is byte-identical either way.
func sortMisses(m []Miss) {
	for i := 1; i < len(m); i++ {
		if m[i].DetectedAt.Cmp(m[i-1].DetectedAt) < 0 {
			sort.Slice(m, func(i, k int) bool {
				return m[i].DetectedAt.Cmp(m[k].DetectedAt) < 0
			})
			return
		}
	}
}
