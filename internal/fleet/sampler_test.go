package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// randomSamplerSet draws a task set for the sampler differential. Small
// periods (down to 1, where the jitter is 0) and repeated periods make
// releases of different tasks land on the same instant.
func randomSamplerSet(rnd *rand.Rand) task.Set {
	periods := []task.Time{1, 1, 2, 3, 3, 5, 8, 8, 13, 40, 97}
	n := 1 + rnd.Intn(12)
	s := make(task.Set, n)
	for i := range s {
		t := periods[rnd.Intn(len(periods))]
		c := 1 + task.Time(rnd.Int63n(int64(t)))
		if t == 1 || rnd.Intn(2) == 0 {
			s[i] = task.Task{
				Name: fmt.Sprintf("lo%d", i), Crit: task.LO,
				Period:   [2]task.Time{t, task.Unbounded},
				Deadline: [2]task.Time{t, task.Unbounded},
				WCET:     [2]task.Time{c, c},
			}
			continue
		}
		s[i] = task.Task{
			Name: fmt.Sprintf("hi%d", i), Crit: task.HI,
			Period:   [2]task.Time{t, t},
			Deadline: [2]task.Time{t - 1, t},
			WCET:     [2]task.Time{min(c, t-1), t - 1 + task.Time(rnd.Intn(2))},
		}
	}
	return s
}

// stretch returns s with every finite period and deadline multiplied by
// f, so a long horizon still releases only a few jobs per task.
func stretch(s task.Set, f task.Time) task.Set {
	out := s.Clone()
	for i := range out {
		for m := range out[i].Period {
			if !out[i].Period[m].IsUnbounded() {
				out[i].Period[m] *= f
			}
			if !out[i].Deadline[m].IsUnbounded() {
				out[i].Deadline[m] *= f
			}
		}
	}
	return out
}

// TestSamplerMatchesReference checks the bulk-draw, radix-sorting
// sampler against the sort-based reference on random sets, horizons and
// replicates. The horizons make the radix sort run 0, 1, 2 and 3 or more
// passes; long horizons come with stretched periods. One sampler and one
// buffer serve every case, so stale state from a larger set or a
// different pass count would show up as a divergence.
func TestSamplerMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20261017))
	var (
		sm             sampler
		got, want      sim.Workload
		ties, empties  int
		shortHorizons  int
		periodOneTasks int
		passCounts     [4]int // cases by radix pass count, 3 standing for 3 or more
	)
	for k := 0; k < 3000; k++ {
		set := randomSamplerSet(rnd)
		minT, maxT := set[0].Period[task.LO], set.MaxPeriod()
		for i := range set {
			minT = min(minT, set[i].Period[task.LO])
			if set[i].Period[task.LO] == 1 {
				periodOneTasks++
			}
		}
		var horizon task.Time
		switch k % 8 {
		case 0:
			horizon = 1
		case 1:
			horizon = max(1, minT-1) // shorter than every period but 1
			shortHorizons++
		case 2: // two passes: bit lengths 12 to 22
			horizon = 1<<11 + 1 + task.Time(rnd.Int63n(1<<22-1<<11))
			set = stretch(set, horizon/(4*maxT)+1)
		case 3: // three or four passes: bit lengths 23 to 40
			horizon = 1<<22 + 1 + task.Time(rnd.Int63n(1<<40-1<<22))
			set = stretch(set, horizon/(4*maxT)+1)
		default:
			horizon = 1 + task.Time(rnd.Int63n(int64(6*maxT)))
		}
		acet := gen.DefaultACET()
		acet.OverrunProb = rnd.Float64()
		p := Params{Set: set, Seed: rnd.Int63() - rnd.Int63(), Horizon: horizon, ACET: acet}
		r := rnd.Intn(1 << 20)

		want = refSampleWorkload(want[:0], p, r)
		got = sm.workload(got[:0], &p, r)
		if !slices.Equal(want, got) {
			t.Fatalf("case %d (%d tasks, horizon %d, r %d):\nref: %v\ngot: %v", k, len(set), horizon, r, want, got)
		}
		passes, _ := radixPasses(horizon)
		passCounts[min(passes, 3)]++
		if len(got) == 0 {
			empties++
		}
		for i := 1; i < len(got); i++ {
			if got[i].At == got[i-1].At {
				ties++
			}
		}
	}
	if ties == 0 || empties == 0 || shortHorizons == 0 || periodOneTasks == 0 {
		t.Fatalf("corpus misses an edge: %d tied releases, %d empty workloads, %d short horizons, %d period-1 tasks",
			ties, empties, shortHorizons, periodOneTasks)
	}
	for passes, n := range passCounts {
		if n == 0 {
			t.Fatalf("no case sorted in %d passes (cases by pass count: %v)", passes, passCounts)
		}
	}
}
