package core

// Per-task virtual-deadline tuning. The paper (following [4], [6]) uses a
// single uniform shortening factor x for every HI task's LO-mode virtual
// deadline (eq. (13)); its reference [5] (Ekberg & Yi's demand shaping)
// shows that tuning each deadline individually can do strictly better.
// TuneDeadlines brings that idea to the speedup setting: it greedily
// shortens individual virtual deadlines — always the move that most
// reduces the exact Theorem-2 speedup — while preserving LO-mode
// schedulability, thereby minimizing the required temporary speedup
// rather than merely finding some feasible configuration.

import (
	"fmt"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TuneResult reports the outcome of TuneDeadlines.
type TuneResult struct {
	// Set is the tuned configuration (per-task virtual deadlines).
	Set task.Set
	// Speedup is the exact minimum HI-mode speedup of the tuned set.
	Speedup rat.Rat
	// UniformSpeedup is the exact minimum speedup of the minimal-x
	// uniform baseline on the same input, for comparison.
	UniformSpeedup rat.Rat
	// Rounds is the number of accepted greedy moves.
	Rounds int
}

// TuneDeadlines minimizes the required HI-mode speedup over per-task
// virtual-deadline assignments, subject to exact LO-mode schedulability.
// It starts from the uniform minimal-x configuration and greedily applies
// the single-task deadline reduction with the largest exact improvement
// until no move helps. step controls the granularity of each move as a
// fraction of the task's D(HI) (default 1/16 when 0).
//
// The search is a heuristic (the underlying problem is combinatorial),
// but every reported number is exact, and the result is never worse than
// the uniform baseline it starts from.
func TuneDeadlines(s task.Set, step rat.Rat) (TuneResult, error) {
	return TuneDeadlinesOpts(s, step, Options{})
}

// TuneDeadlinesOpts is TuneDeadlines with explicit walk options. Every
// candidate move is screened by the witness certificate first: a summed
// DBF ratio at the previous decisive Δ that already reaches the round's
// best speedup proves the move cannot improve it, skipping the full
// Theorem-2 walk.
//
// The search carries one dbf.SetState instead of materializing candidate
// sets: each probe applies a single D(LO) edit, evaluates, and reverts.
// A virtual-deadline edit leaves every HI-mode aggregate valid and drops
// only the LO-mode demand sum, which refolds in fixed width, so a
// candidate pays only the (usually certificate-pruned) walk and a QPA
// test.
func TuneDeadlinesOpts(s task.Set, step rat.Rat, o Options) (TuneResult, error) {
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
	o, borrowed := borrowScratch(o)
	defer releaseScratch(borrowed)
	probe := newCapProbe(o)
	st, err := dbf.NewSetState(cur)
	if err != nil {
		return TuneResult{}, err
	}
	base, err := probe.speedup(st)
	if err != nil {
		return TuneResult{}, err
	}
	res := TuneResult{UniformSpeedup: base.Speedup}
	best := base.Speedup

	e := task.Edit{Op: task.OpSet, Params: []task.ParamValue{{Param: task.ParamDLO}}}
	setDLO := func(name string, d task.Time) error {
		e.Name = name
		e.Params[0].Value = d
		return st.Apply(e)
	}
	n := len(cur)
	for rounds := 0; rounds < 64*n; rounds++ {
		bestIdx := -1
		var bestD task.Time
		bestVal := best
		tasks := st.Tasks()
		for i := 0; i < n; i++ {
			t := tasks[i] // copy: the probe edits mutate the state in place
			if t.Crit != task.HI {
				continue
			}
			// Shorten τ_i's virtual deadline by step·D(HI), floored at
			// C(LO).
			delta := task.Time(step.MulInt(int64(t.Deadline[task.HI])).Floor())
			if delta < 1 {
				delta = 1
			}
			d := t.Deadline[task.LO] - delta
			if d < t.WCET[task.LO] {
				d = t.WCET[task.LO]
			}
			if d >= t.Deadline[task.LO] {
				continue // already at the floor
			}
			if err := setDLO(t.Name, d); err != nil {
				return TuneResult{}, err
			}
			// LO-mode feasibility first, then the certificate:
			// s_min(cand) ≥ bestVal already proves the move cannot
			// strictly improve this round.
			if st.LOSched(schedulableLO) && !probe.atLeast(st, bestVal, false) {
				sp, err := probe.speedup(st)
				if err != nil {
					return TuneResult{}, err
				}
				if sp.Speedup.Cmp(bestVal) < 0 {
					bestIdx, bestD, bestVal = i, d, sp.Speedup
				}
			}
			if err := setDLO(t.Name, t.Deadline[task.LO]); err != nil {
				return TuneResult{}, err // revert the probe edit
			}
		}
		if bestIdx < 0 {
			break
		}
		if err := setDLO(tasks[bestIdx].Name, bestD); err != nil {
			return TuneResult{}, err
		}
		best = bestVal
		res.Rounds++
	}
	res.Set = st.Tasks().Clone()
	res.Speedup = best
	return res, nil
}
