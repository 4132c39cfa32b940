package sim

import (
	"fmt"
	"math"

	"mcspeedup/internal/core"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Compiled is a pre-validated (task set, workload) pair: Compile pays
// the set and workload validation once, so a loop driving RunInto per
// configuration — or RunWorkload per sampled workload — never re-walks
// the validation maps the old per-call Run paid on every invocation.
type Compiled struct {
	set task.Set
	w   Workload
	// maxDeadline is the largest finite relative deadline in set, and
	// maxWCET the largest C(HI), for the tick-grid span check.
	maxDeadline, maxWCET task.Time
	// schedLO is core.SchedulableLO's verdict on set: the exact LO-mode
	// processor-demand test that licenses skipping overrun-free busy
	// periods (see Scratch.skipLO).
	schedLO bool
}

// Compile validates the set and workload and returns the reusable pair.
func Compile(s task.Set, w Workload) (*Compiled, error) {
	c, err := CompileSet(s)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(s); err != nil {
		return nil, err
	}
	c.w = w
	return c, nil
}

// CompileSet validates the set alone, for callers that generate their
// workloads per run (see RunWorkload).
func CompileSet(s task.Set) (*Compiled, error) {
	schedLO, err := core.SchedulableLO(s)
	if err != nil {
		return nil, err
	}
	c := &Compiled{set: s, maxDeadline: maxDeadline(s), schedLO: schedLO}
	for i := range s {
		c.maxWCET = max(c.maxWCET, s[i].WCET[task.HI])
	}
	return c, nil
}

// maxDeadline is the largest finite relative deadline in s. A terminated
// task's unbounded D(HI) never becomes a job deadline: its HI-mode
// arrivals are dropped and its carry-over jobs killed or parked.
func maxDeadline(s task.Set) task.Time {
	var d task.Time
	for i := range s {
		for _, m := range [...]task.Crit{task.LO, task.HI} {
			if dm := s[i].Deadline[m]; !dm.IsUnbounded() {
				d = max(d, dm)
			}
		}
	}
	return d
}

// Set returns the compiled task set.
func (c *Compiled) Set() task.Set { return c.set }

// RunInto simulates the compiled workload, writing the metrics into res
// (whose buffers are truncated and reused — see Result). A nil sc, or
// one already mid-run, falls back to the package pool; either way the
// call is allocation-free in steady state when trace and job collection
// are off.
func (c *Compiled) RunInto(res *Result, sc *Scratch, cfg Config) error {
	return c.RunWorkload(res, sc, c.w, cfg)
}

// RunWorkload is RunInto over a caller-supplied workload that must be
// valid by construction (sorted by arrival time, demands within the
// per-criticality WCET caps, per-task spacing of at least T(LO)) —
// validation is skipped. This is the fleet engine's hot path: one
// Compiled per task set, one sampled workload per run.
//
// When the set passed core.SchedulableLO and the run collects neither
// jobs nor a trace, every LO-mode busy period without an overrunning
// arrival is committed without stepping EDF (see the package comment).
// That shortcut is exact only because of the precondition above: an
// invalid workload may make the result differ from the EDF loop's.
func (c *Compiled) RunWorkload(res *Result, sc *Scratch, w Workload, cfg Config) error {
	if cfg.Speedup.Sign() <= 0 || cfg.Speedup.IsInf() {
		return fmt.Errorf("sim: speedup %v must be positive and finite", cfg.Speedup)
	}
	t, err := c.grid(w, cfg)
	if err != nil {
		return err
	}
	sc, pooled := borrow(sc)
	res.reset()
	sc.begin(c.set, cfg, t, res)
	sc.skip = c.schedLO && !cfg.CollectJobs && !cfg.CollectTrace
	sc.run(w)
	res.EndTime = rat.New(sc.endAt, sc.endUnit)
	sc.finish()
	if pooled != nil {
		simScratchPool.Put(pooled)
	}
	sortMisses(res.Misses)
	sortJobs(res.Jobs)
	return nil
}

// grid derives the run's tick grid (see rat.Ticks) and checks, before
// the loop starts, that every instant and work amount the run can reach
// fits it, so the loop's int64 arithmetic can neither wrap nor panic.
// The workload is sorted, so its last arrival is its latest. Its work is
// at most len(w)·max C(HI); Fits is monotone in the work, so only when
// that bound does not fit does the exact sum of the demands decide.
func (c *Compiled) grid(w Workload, cfg Config) (rat.Ticks, error) {
	t, ok := rat.NewTicks(cfg.Speedup, cfg.Budget)
	if ok {
		last, n := int64(0), int64(len(w))
		if n > 0 {
			last = int64(w[n-1].At)
		}
		wcet, dl := int64(c.maxWCET), int64(c.maxDeadline)
		if n > math.MaxInt64/max(wcet, 1) || !t.Fits(last, n*wcet, dl) {
			var work int64
			for i := range w {
				if int64(w[i].Demand) > math.MaxInt64-work {
					ok = false
					break
				}
				work += int64(w[i].Demand)
			}
			ok = ok && t.Fits(last, work, dl)
		}
	}
	if !ok {
		budget := "no budget"
		if cfg.Budget.Sign() > 0 {
			budget = "budget " + cfg.Budget.String()
		}
		return t, fmt.Errorf("sim: speedup %v with %s needs a tick grid finer than int64 can hold over this workload",
			cfg.Speedup, budget)
	}
	return t, nil
}
