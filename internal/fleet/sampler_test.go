package fleet

import (
	"fmt"
	"math"
	"math/bits"
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

// TestSamplerMatchesReference checks the bucket-scattering sampler
// against the sort-based reference on random sets, horizons, table caps
// and replicates. The corpus must reach the scatter's edges: a capped
// table, buckets holding several releases, and a fix-up that moves
// records. Long horizons come with stretched periods. One sampler and
// one buffer serve every case, so stale state from a larger set or a
// larger table would show up as a divergence.
func TestSamplerMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20261017))
	var (
		sm             sampler
		got, want      sim.Workload
		ties, empties  int
		shortHorizons  int
		periodOneTasks int
		capped, moved  int
		crowded        int // cases with a bucket of several releases
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
		case 2: // bit lengths 12 to 22
			horizon = 1<<11 + 1 + task.Time(rnd.Int63n(1<<22-1<<11))
			set = stretch(set, horizon/(4*maxT)+1)
		case 3: // bit lengths 23 to 40
			horizon = 1<<22 + 1 + task.Time(rnd.Int63n(1<<40-1<<22))
			set = stretch(set, horizon/(4*maxT)+1)
		default:
			horizon = 1 + task.Time(rnd.Int63n(int64(6*maxT)))
		}
		acet := gen.DefaultACET()
		acet.OverrunProb = rnd.Float64()
		p := Params{Set: set, Seed: rnd.Int63() - rnd.Int63(), Horizon: horizon, ACET: acet}
		r := rnd.Intn(1 << 20)
		// Every other round of the horizon kinds uses the production
		// table, the rest a dense cap small enough to bind on most
		// horizons.
		denseBits := denseBucketBits
		if k/8%2 == 1 {
			denseBits = rnd.Intn(5)
		}
		dp, err := newDrawPlan(&p, denseBits)
		if err != nil {
			t.Fatal(err)
		}

		want = refSampleWorkload(want[:0], p, r)
		got = sm.workload(got[:0], &dp, r)
		if !slices.Equal(want, got) {
			t.Fatalf("case %d (%d tasks, horizon %d, dense cap 2^%d, r %d):\nref: %v\ngot: %v",
				k, len(set), horizon, denseBits, r, want, got)
		}
		if bits.Len(uint(dp.releases-1)) > denseBits {
			capped++
		}
		if sm.moves > 0 {
			moved++
		}
		if len(got) == 0 {
			empties++
		}
		shared := false
		for i := 1; i < len(got); i++ {
			if got[i].At == got[i-1].At {
				ties++
			}
			shared = shared || got[i].At>>dp.shift == got[i-1].At>>dp.shift
		}
		if shared {
			crowded++
		}
	}
	for name, n := range map[string]int{
		"tied releases": ties, "empty workloads": empties, "short horizons": shortHorizons,
		"period-1 tasks": periodOneTasks, "capped tables": capped, "fix-ups that move records": moved,
		"buckets holding several releases": crowded,
	} {
		if n == 0 {
			t.Errorf("corpus has no %s", name)
		}
	}
}

// TestReleaseBoundLimit pins the release bound's edge: with a period-1
// task a horizon of maxReleases ticks releases exactly maxReleases jobs,
// the most a replicate may draw, and one tick more is refused, as is a
// bound whose sum would overflow.
func TestReleaseBoundLimit(t *testing.T) {
	one := task.Set{{Name: "a", Crit: task.LO, Period: [2]task.Time{1, task.Unbounded},
		Deadline: [2]task.Time{1, task.Unbounded}, WCET: [2]task.Time{1, 1}}}
	if n, err := releaseBound(one, maxReleases); err != nil || n != maxReleases {
		t.Fatalf("releaseBound(%d) = %d, %v; want %d", maxReleases, n, err, maxReleases)
	}
	if _, err := releaseBound(one, maxReleases+1); err == nil {
		t.Fatalf("releaseBound accepted %d releases", maxReleases+1)
	}
	many := task.Set{one[0], one[0], one[0], one[0]}
	if _, err := releaseBound(many, math.MaxInt64); err == nil {
		t.Fatal("releaseBound accepted a sum beyond int64")
	}
}

// FuzzSamplerMatchesReference holds the sampler to the sort-based
// reference on random sets, horizons, table caps, seeds and replicates.
// Periods are stretched so that a task releases at most about 2^12 jobs,
// however long the horizon.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add(int64(1), uint64(100), uint8(18), int64(7), uint32(3), uint8(128))
	f.Add(int64(2), uint64(1), uint8(0), int64(-5), uint32(0), uint8(0))
	f.Add(int64(3), uint64(5000), uint8(2), int64(11), uint32(1<<20), uint8(255))
	f.Add(int64(4), uint64(1)<<39, uint8(4), int64(1)<<40, uint32(9), uint8(40))
	var (
		sm        sampler
		got, want sim.Workload
	)
	f.Fuzz(func(t *testing.T, setSeed int64, horizonRaw uint64, denseRaw uint8, seed int64, r uint32, probRaw uint8) {
		set := randomSamplerSet(rand.New(rand.NewSource(setSeed)))
		horizon := 1 + task.Time(horizonRaw%(1<<40))
		if n, err := releaseBound(set, horizon); err != nil || n > 1<<12 {
			set = stretch(set, horizon>>12+1)
		}
		acet := gen.DefaultACET()
		acet.OverrunProb = float64(probRaw) / 255
		p := Params{Set: set, Seed: seed, Horizon: horizon, ACET: acet}
		dp, err := newDrawPlan(&p, int(denseRaw)%(denseBucketBits+1))
		if err != nil {
			t.Fatal(err)
		}
		want = refSampleWorkload(want[:0], p, int(r))
		got = sm.workload(got[:0], &dp, int(r))
		if !slices.Equal(want, got) {
			t.Fatalf("%d tasks, horizon %d, shift %d:\nref: %v\ngot: %v", len(set), horizon, dp.shift, want, got)
		}
	})
}

// crowdedSet draws n HI tasks with periods from periods.
func crowdedSet(rnd *rand.Rand, n int, periods []task.Time) task.Set {
	s := make(task.Set, n)
	for i := range s {
		t := periods[rnd.Intn(len(periods))]
		s[i] = task.Task{
			Name: fmt.Sprintf("t%d", i), Crit: task.HI,
			Period: [2]task.Time{t, t}, Deadline: [2]task.Time{t, t}, WCET: [2]task.Time{1, t},
		}
	}
	return s
}

// TestFixupLinear bounds the fix-up's record moves by 4 per release on
// crowded sets: many period-1 and period-2 tasks, and sets mixing them
// with longer periods, at horizons where the table is dense and where it
// is past its dense cap (lowered here, so the sets stay small). The
// table keeps about eight releases or fewer per bucket, so a record moves
// past a few others at most, whatever the number of tasks. A table held
// at its dense cap instead would move each record past hundreds (770 per
// release for 16 tasks of periods 1 and 2 over 40 000 ticks in 2^8
// buckets).
func TestFixupLinear(t *testing.T) {
	rnd := rand.New(rand.NewSource(20261019))
	var (
		sm    sampler
		wl    sim.Workload
		worst float64
	)
	for _, periods := range [][]task.Time{{1, 2}, {1, 1, 2}, {2, 3}, {1, 2, 3, 5, 8, 13, 40, 97}, {5, 7, 11, 64, 100}} {
		for _, n := range []int{4, 16, 32} {
			for _, h := range []task.Time{1000, 5000, 10000} {
				for _, denseBits := range []int{denseBucketBits, 10, 6} {
					set := crowdedSet(rnd, n, periods)
					p := Params{Set: set, Seed: rnd.Int63(), Horizon: h, ACET: gen.DefaultACET()}
					dp, err := newDrawPlan(&p, denseBits)
					if err != nil {
						t.Fatal(err)
					}
					wl = sm.workload(wl[:0], &dp, rnd.Intn(1000))
					ratio := float64(sm.moves) / float64(len(wl))
					worst = max(worst, ratio)
					if ratio > 4 {
						t.Errorf("periods %v, %d tasks, horizon %d, dense cap 2^%d: %d moves for %d releases",
							periods, n, h, denseBits, sm.moves, len(wl))
					}
				}
			}
		}
	}
	if worst < 1 {
		t.Fatalf("at most %.2f moves per release: the sets no longer crowd the buckets", worst)
	}
	t.Logf("at most %.2f moves per release", worst)
}
