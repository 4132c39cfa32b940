//go:build !race

package fleet

// Allocation regression test for the replicate path: every per-run
// buffer (workload, sampler state, sim.Scratch, sim.Result) is owned by
// the chunk and reused across its runs, so a fleet's allocations grow
// with its chunk count, never with its run count. Kept out of
// race-instrumented runs, whose bookkeeping allocations
// testing.AllocsPerRun would count.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mcspeedup/internal/rat"
)

// perChunkAllocs bounds one extra chunk's bookkeeping: its buffers
// growing to size on the chunk's first runs, plus the merger's and the
// worker pool's per-chunk costs.
const perChunkAllocs = 64

func TestRunAllocsDoNotGrowWithRuns(t *testing.T) {
	set := preparedFMS(t)
	allocs := func(runs int) float64 {
		p := Params{
			Set: set, Runs: runs, Seed: 3, Speedup: rat.Two,
			Horizon: 4 * set.MaxPeriod(), Workers: 1, ACET: hotACET(),
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, four := allocs(chunkSize), allocs(4*chunkSize)
	t.Logf("allocs/op: %d runs %v, %d runs %v", chunkSize, one, 4*chunkSize, four)
	if four > one+3*perChunkAllocs {
		t.Errorf("Run: %v allocs/op at %d runs vs %v at %d runs; want at most %d more (3 chunks' bookkeeping)",
			four, 4*chunkSize, one, chunkSize, 3*perChunkAllocs)
	}
}

// TestRunAllocsExact requires the same allocation count from every
// single-worker fleet. Run owns every buffer and aggregate it uses, so
// whether a garbage collection has just emptied the sync.Pools must not
// change its count: every other call runs right after two collections
// (the second clears the pools' victim caches), the rest on warm pools.
// MemStats counts the whole process, so the runtime's own work is kept
// out of the measured calls: collection is off inside them (it adds a
// few allocations to whichever call it lands in), the test runs on one
// P (a background timer that lands on another P's empty timer heap
// allocates one), and two uncounted rounds first let the runtime start
// its background workers.
func TestRunAllocsExact(t *testing.T) {
	set := preparedFMS(t)
	p := Params{Set: set, Runs: 1024, Seed: 1, Speedup: rat.Two, Horizon: 4 * set.MaxPeriod(), Workers: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 2 {
		debug.FreeOSMemory()
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	counts := make([]uint64, 50)
	for i := range counts {
		if i%2 == 0 {
			debug.FreeOSMemory()
			debug.FreeOSMemory()
		}
		runtime.ReadMemStats(&before)
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	for i, n := range counts {
		if n != counts[0] {
			t.Fatalf("call %d allocated %d times, call 0 %d times; all counts: %v", i, n, counts[0], counts)
		}
	}
	t.Logf("%d allocations per call", counts[0])
}
