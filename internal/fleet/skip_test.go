package fleet

import (
	"slices"
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

// TestSkipMatchesSteppedReplicates runs sampled replicates of the
// prepared FMS set, which passes core.SchedulableLO, twice: once as Run
// runs them (misses only counted, so sim commits the LO-mode busy
// periods that hold no overrun without stepping EDF), and once
// collecting jobs, which turns that shortcut off and steps every job
// through EDF. Every result field the fleet reads must agree, and some
// replicates must hand a busy period back to EDF (an episode in the
// skipping run), so the comparison covers the hand-back as well as the
// committed prefix.
func TestSkipMatchesSteppedReplicates(t *testing.T) {
	const replicates = 500
	set := preparedFMS(t)
	c, err := sim.CompileSet(set)
	if err != nil {
		t.Fatal(err)
	}
	skipCfg := sim.Config{Speedup: rat.Two, CountMissesOnly: true}
	stepCfg := sim.Config{Speedup: rat.Two, CollectJobs: true}
	var (
		skipped, stepped sim.Result
		sc               sim.Scratch
		sm               sampler
		wl               sim.Workload
		handed           int
	)
	for _, acet := range []gen.ACET{gen.DefaultACET(), hotACET()} {
		for _, periods := range []task.Time{4, 20} {
			p := Params{Set: set, Seed: 1, Horizon: periods * set.MaxPeriod(), ACET: acet}
			dp, err := newDrawPlan(&p, denseBucketBits)
			if err != nil {
				t.Fatal(err)
			}
			for r := range replicates {
				wl = sm.workload(wl[:0], &dp, r)
				if err := c.RunWorkload(&skipped, &sc, wl, skipCfg); err != nil {
					t.Fatal(err)
				}
				if err := c.RunWorkload(&stepped, &sc, wl, stepCfg); err != nil {
					t.Fatal(err)
				}
				if skipped.Completed != stepped.Completed || skipped.Dropped != stepped.Dropped ||
					skipped.Killed != stepped.Killed || skipped.MissCount != stepped.MissCount ||
					!slices.Equal(skipped.Episodes, stepped.Episodes) || skipped.EndTime != stepped.EndTime {
					t.Fatalf("ACET %+v, horizon %d, replicate %d: skipping run %+v, stepped run %+v",
						acet, p.Horizon, r, summarize(&skipped), summarize(&stepped))
				}
				if len(skipped.Episodes) > 0 {
					handed++
				}
			}
		}
	}
	if handed == 0 {
		t.Fatal("no replicate handed a busy period back to EDF")
	}
	t.Logf("%d of %d replicates handed a busy period back to EDF", handed, 4*replicates)
}

// summarize keeps the fields TestSkipMatchesSteppedReplicates compares.
func summarize(res *sim.Result) any {
	return struct {
		Completed, Dropped, Killed, MissCount int
		Episodes                              []sim.Episode
		EndTime                               rat.Rat
	}{res.Completed, res.Dropped, res.Killed, res.MissCount, res.Episodes, res.EndTime}
}
