package fleet

import (
	"testing"

	"mcspeedup/internal/rat"
)

// BenchmarkRun times one single-worker fleet of 1024 runs on the
// prepared FMS set at s = 2 with the default ACET model and a horizon of
// four largest periods: sampling, simulation and reduction together.
func BenchmarkRun(b *testing.B) {
	set := preparedFMS(b)
	p := Params{Set: set, Runs: 1024, Seed: 1, Speedup: rat.Two, Horizon: 4 * set.MaxPeriod(), Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
