package sim

// Benchmarks for the simulation hot path. BenchmarkRefRun drives the
// frozen pre-refactor engine from ref_test.go, so `go test -bench Run`
// prints the before/after pair that docs/PERF.md quotes; the tracked
// cross-run numbers live in BENCH_core.json via cmd/mcs-bench.

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/core"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/rat"
)

func benchCase(b *testing.B) (*Compiled, Config) {
	b.Helper()
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		b.Fatal(err)
	}
	w := SynchronousPeriodic(set, 20*set.MaxPeriod(), func(_, seq int) bool { return seq%5 == 0 })
	c, err := Compile(set, w)
	if err != nil {
		b.Fatal(err)
	}
	return c, Config{Speedup: rat.Two}
}

func BenchmarkRunInto(b *testing.B) {
	c, cfg := benchCase(b)
	var (
		res Result
		sc  Scratch
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RunInto(&res, &sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefRun(b *testing.B) {
	c, cfg := benchCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refRun(c.set, c.w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWorkloadSporadic times RunWorkload on the path the fleet
// takes: the FMS set prepared as the fleet benchmarks prepare it (LO
// tasks degraded at s = 2, deadlines shortened by core.MinimalX), which
// passes core.SchedulableLO, under random sporadic workloads of 20
// largest periods whose HI jobs overrun with probability 0.001. Most busy
// periods are then committed by skipLO; BenchmarkRunInto times the EDF
// loop alone. Reported per released job.
func BenchmarkRunWorkloadSporadic(b *testing.B) {
	set, err := fms.Tasks(fms.DefaultGamma)
	if err != nil {
		b.Fatal(err)
	}
	if set, err = set.DegradeLO(rat.Two); err != nil {
		b.Fatal(err)
	}
	_, set, err = core.MinimalX(set)
	if err != nil {
		b.Fatal(err)
	}
	c, err := CompileSet(set)
	if err != nil {
		b.Fatal(err)
	}
	if !c.schedLO {
		b.Fatal("the prepared FMS set is not LO-schedulable")
	}
	rnd := rand.New(rand.NewSource(1))
	ws := make([]Workload, 16)
	for i := range ws {
		ws[i] = RandomSporadic(rnd, set, 20*set.MaxPeriod(), 0.001)
	}
	cfg := Config{Speedup: rat.Two, CountMissesOnly: true}
	var (
		res  Result
		sc   Scratch
		jobs int
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ws[i%len(ws)]
		if err := c.RunWorkload(&res, &sc, w, cfg); err != nil {
			b.Fatal(err)
		}
		jobs += len(w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
