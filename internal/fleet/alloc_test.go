//go:build !race

package fleet

// Allocation regression test for the replicate path: every per-run
// buffer (workload, sampler state, sim.Scratch, sim.Result) is owned by
// the chunk and reused across its runs, so a fleet's allocations grow
// with its chunk count, never with its run count. Kept out of
// race-instrumented runs, whose bookkeeping allocations
// testing.AllocsPerRun would count.

import (
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
		if _, err := Run(p); err != nil { // warm the pools
			t.Fatal(err)
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
