//go:build !race

package fleet

// Memory regression test for overloaded sets at the /v1/fleet horizon
// cap: the fleet keeps only a miss count per run (sim.Config.
// CountMissesOnly), so a run whose every job misses allocates no more
// than one whose jobs all meet their deadlines. Kept out of
// race-instrumented runs, whose shadow bookkeeping inflates TotalAlloc.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// overloadedSet has LO/HI periods 2, 3, 4 and 5 and U(LO) ≈ 1.28, so
// nearly every job of a long run misses its deadline.
func overloadedSet() task.Set {
	return task.Set{
		{Name: "a", Crit: task.LO, Period: [2]task.Time{2, 2}, Deadline: [2]task.Time{2, 2}, WCET: [2]task.Time{1, 1}},
		{Name: "b", Crit: task.HI, Period: [2]task.Time{3, 3}, Deadline: [2]task.Time{2, 3}, WCET: [2]task.Time{1, 2}},
		{Name: "c", Crit: task.LO, Period: [2]task.Time{4, 4}, Deadline: [2]task.Time{4, 4}, WCET: [2]task.Time{1, 1}},
		{Name: "d", Crit: task.HI, Period: [2]task.Time{5, 5}, Deadline: [2]task.Time{3, 5}, WCET: [2]task.Time{1, 2}},
	}
}

// TestOverloadedRunMemory runs one replicate of overloadedSet over the
// 2 000 000-tick horizon cap on one worker. Its allocations must stay
// within the sampler's two workload buffers (each sized to the release
// bound Σ(⌊(H−1)/T⌋+1)) plus 4 MiB for everything else. Keeping a Miss
// record per missed job, as the fleet did before it counted misses only,
// allocated 703 MiB here against this bound of 121.5 MiB.
func TestOverloadedRunMemory(t *testing.T) {
	const horizon = 2_000_000
	set := overloadedSet()
	var releases uint64
	for i := range set {
		releases += uint64((horizon-1)/set[i].Period[task.LO] + 1)
	}
	limit := 2*releases*uint64(unsafe.Sizeof(sim.Arrival{})) + 4<<20
	p := Params{Set: set, Runs: 1, Seed: 1, Speedup: rat.Two, Horizon: horizon, Workers: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, err := Run(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d misses in %d jobs; allocated %.1f MiB (limit %.1f MiB)",
		sum.Misses, sum.JobsReleased, float64(got)/(1<<20), float64(limit)/(1<<20))
	if sum.Misses < sum.JobsReleased/2 {
		t.Fatalf("fixture drifted: only %d of %d jobs missed", sum.Misses, sum.JobsReleased)
	}
	if got > limit {
		t.Fatalf("allocated %.1f MiB, want at most %.1f MiB", float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestHorizonRefusedBeforeSampling runs fleets whose release bound
// Σ(⌊(H−1)/T⌋+1) exceeds maxReleases. Run must refuse them with an error
// naming the limit before it allocates a workload buffer. At a horizon
// of 2^62 the buffers would not even fit the address space; the
// overloaded set at 2^31 ticks (about 2.8·10^9 releases) and the FMS set
// at 2^36 ticks (about 2·10^8) fit the bucket offsets but would ask for
// tens of gigabytes.
func TestHorizonRefusedBeforeSampling(t *testing.T) {
	cases := []struct {
		set     task.Set
		horizon task.Time
	}{
		{overloadedSet(), 1 << 62},
		{overloadedSet(), 1 << 33},
		{overloadedSet(), math.MaxUint32},
		{overloadedSet(), 1 << 31},
		{preparedFMS(t), 1 << 36},
	}
	for _, c := range cases {
		p := Params{Set: c.set, Runs: 4, Seed: 1, Speedup: rat.Two, Horizon: c.horizon, Workers: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(p)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d jobs per run", maxReleases)) {
			t.Fatalf("horizon %d: error %v, want a refusal naming the %d-release limit", c.horizon, err, maxReleases)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("horizon %d: allocated %d bytes before refusing", c.horizon, got)
		}
	}
}
