package sim

import (
	"cmp"
	"math/rand"
	"slices"

	"mcspeedup/internal/task"
)

// OverrunFn decides, per released job, whether a HI-criticality job
// overruns its C(LO) (the job then executes for C(HI)). taskIdx indexes
// the task set, jobSeq counts that task's releases starting at 1.
type OverrunFn func(taskIdx, jobSeq int) bool

// NoOverrun releases every job at its LO-criticality demand.
func NoOverrun(int, int) bool { return false }

// AlwaysOverrun makes every HI job take its full C(HI).
func AlwaysOverrun(int, int) bool { return true }

// SynchronousPeriodic builds the classical worst-case-style workload:
// every task releases at time 0 and then strictly periodically with its
// LO-mode period, up to (and excluding) the horizon. HI jobs designated
// by overrun execute for C(HI), all other jobs for C(LO).
func SynchronousPeriodic(s task.Set, horizon task.Time, overrun OverrunFn) Workload {
	var w Workload
	for i := range s {
		tk := &s[i]
		seq := 0
		for at := task.Time(0); at < horizon; at += tk.Period[task.LO] {
			seq++
			demand := tk.WCET[task.LO]
			if tk.Crit == task.HI && overrun(i, seq) {
				demand = tk.WCET[task.HI]
			}
			w = append(w, Arrival{Task: i, At: at, Demand: demand})
		}
	}
	sortWorkload(w)
	return w
}

// RandomSporadic builds a random sporadic workload: each task's
// inter-arrival times are T(LO) plus a random jitter of up to half a
// period, initial offsets are random, HI jobs overrun with probability
// overrunProb (with demand uniform in (C(LO), C(HI)]), and non-overrun
// demands are uniform in [1, C(LO)].
func RandomSporadic(rnd *rand.Rand, s task.Set, horizon task.Time, overrunProb float64) Workload {
	var w Workload
	for i := range s {
		tk := &s[i]
		at := task.Time(rnd.Int63n(int64(tk.Period[task.LO]) + 1))
		for at < horizon {
			demand := task.Time(rnd.Int63n(int64(tk.WCET[task.LO]))) + 1
			if tk.Crit == task.HI && tk.WCET[task.HI] > tk.WCET[task.LO] && rnd.Float64() < overrunProb {
				over := tk.WCET[task.HI] - tk.WCET[task.LO]
				demand = tk.WCET[task.LO] + task.Time(rnd.Int63n(int64(over))) + 1
			}
			w = append(w, Arrival{Task: i, At: at, Demand: demand})
			at += tk.Period[task.LO] + task.Time(rnd.Int63n(int64(tk.Period[task.LO])/2+1))
		}
	}
	sortWorkload(w)
	return w
}

func sortWorkload(w Workload) {
	slices.SortStableFunc(w, func(a, b Arrival) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Task, b.Task)
	})
}
