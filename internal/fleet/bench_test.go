package fleet

import (
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
)

// BenchmarkRun times one single-worker fleet of 1024 runs on the
// prepared FMS set at s = 2 with the default ACET model and a horizon of
// four largest periods: sampling, simulation and reduction together.
// It is cmd/mcs-bench's FleetThroughput row.
func BenchmarkRun(b *testing.B) {
	set := preparedFMS(b)
	p := Params{Set: set, Runs: 1024, Seed: 1, Speedup: rat.Two, Horizon: 4 * set.MaxPeriod(), Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSample times the replicate sampler alone on BenchmarkRun's
// fleet: one replicate's workload per op, reported per released job.
// It is cmd/mcs-bench's FleetSample row.
func BenchmarkSample(b *testing.B) {
	set := preparedFMS(b)
	p := Params{Set: set, Seed: 1, Horizon: 4 * set.MaxPeriod(), ACET: gen.DefaultACET()}
	dp, err := newDrawPlan(&p, denseBucketBits)
	if err != nil {
		b.Fatal(err)
	}
	var (
		sm   sampler
		wl   sim.Workload
		jobs int
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl = sm.workload(wl[:0], &dp, i)
		jobs += len(wl)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
