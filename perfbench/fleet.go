package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"mcspeedup/internal/core"
	"mcspeedup/internal/fleet"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/sim"
	"mcspeedup/internal/task"
)

const (
	// fleetRunsPerOp is two of the fleet engine's 512-run chunks, so
	// each of a 2-core host's workers gets one per operation.
	fleetRunsPerOp = 1024
	// fleetIdentityRuns spans three chunks, so the set-up's 1-worker vs
	// nproc-worker comparison merges chunks out of order.
	fleetIdentityRuns = 1040
)

// preparedFMS is the FMS case study as the benchmarks analyze it: γ = 2,
// LO tasks degraded by y = 2, minimal x.
func preparedFMS() (task.Set, error) {
	set, err := fms.Tasks(rat.Two)
	if err != nil {
		return nil, err
	}
	shaped, err := set.DegradeLO(rat.Two)
	if err != nil {
		return nil, err
	}
	_, prepared, err := core.MinimalX(shaped)
	return prepared, err
}

// fleetParams is operation op's fleet: FMS at s = 2 over four of its
// longest periods (mcs-bench's FleetThroughput horizon), seeded per op.
func fleetParams(set task.Set, seed int64, op, runs, workers int) fleet.Params {
	return fleet.Params{
		Set:     set,
		Runs:    runs,
		Seed:    gen.Substream(seed, pointFleet, op),
		Speedup: rat.Two,
		Horizon: 4 * set.MaxPeriod(),
		Workers: workers,
	}
}

// checkFleetSummary: at s ≥ s_min no run may miss a deadline (Theorem 2)
// and no episode may outlast Δ_R (Corollary 5).
func checkFleetSummary(sum *fleet.Summary, runs int) error {
	switch {
	case sum.Runs != int64(runs):
		return fmt.Errorf("fleet summary has %d runs, want %d", sum.Runs, runs)
	case sum.BoundViolations != 0:
		return fmt.Errorf("%d episodes exceeded the Corollary-5 bound %s", sum.BoundViolations, sum.ResetBound)
	case sum.Misses != 0:
		return fmt.Errorf("%d deadline misses at s = 2 ≥ s_min", sum.Misses)
	}
	return nil
}

// fleetIdentity runs one small fleet on 1 and on workers goroutines; the
// summary JSON must be byte-identical.
func fleetIdentity(set task.Set, seed int64, runs, workers int) error {
	p := fleetParams(set, seed, -1, runs, 1)
	p.Horizon = 2 * set.MaxPeriod()
	one, err := fleet.Run(p)
	if err != nil {
		return err
	}
	p.Workers = workers
	many, err := fleet.Run(p)
	if err != nil {
		return err
	}
	a, err := one.JSON()
	if err != nil {
		return err
	}
	b, err := many.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("fleet summary differs between 1 and %d workers", workers)
	}
	return nil
}

// fleetTally is one fleet phase's counts.
type fleetTally struct {
	ops, runs int
	busy      time.Duration
	latency   []float64 // ms per RunFleet call
}

// fleetPhase calls RunFleet with the given workers for d, checking every
// summary. Operation numbers continue from *op so no two calls repeat a
// seed.
func fleetPhase(o *outcome, set task.Set, cfg config, runs, workers int, d time.Duration, op *int, tr *tracer) fleetTally {
	var t fleetTally
	for deadline := time.Now().Add(d); time.Now().Before(deadline); *op++ {
		id := tr.begin("fleet.run", -1, int64(*op))
		t0 := time.Now()
		sum, err := fleet.Run(fleetParams(set, cfg.seed, *op, runs, workers))
		el := time.Since(t0)
		tr.end(id)
		t.ops++
		t.runs += runs
		t.busy += el
		t.latency = append(t.latency, ms(el))
		if err == nil {
			err = checkFleetSummary(sum, runs)
		}
		o.check(err)
	}
	return t
}

func (t fleetTally) rate() float64 { return float64(t.runs) / t.busy.Seconds() }

func runFleet(cfg config) (*outcome, error) {
	o := newOutcome()
	runs, identityRuns := fleetRunsPerOp, fleetIdentityRuns
	if cfg.small {
		runs, identityRuns = 64, 520
	}
	var set task.Set
	err := timeSetup(cfg, o, func() error {
		var err error
		if set, err = preparedFMS(); err != nil {
			return err
		}
		sp, err := core.MinSpeedup(set)
		if err != nil {
			return err
		}
		if sp.Speedup.Cmp(rat.Two) > 0 {
			return fmt.Errorf("FMS s_min %v exceeds the fleet speed 2", sp.Speedup)
		}
		if _, err := sim.CompileSet(set); err != nil {
			return err
		}
		o.check(fleetIdentity(set, cfg.seed, identityRuns, cfg.workers))
		return nil
	})
	if err != nil {
		return nil, err
	}
	op := 0
	if !cfg.trace {
		t := fleetPhase(o, set, cfg, runs, cfg.workers, cfg.measure, &op, nil)
		o.latency, o.opsRate = t.latency, t.rate()
		o.note("%d RunFleet calls of %d runs on %d workers", t.ops, runs, cfg.workers)
		return o, nil
	}

	untraced := fleetPhase(o, set, cfg, runs, cfg.workers, cfg.measure*30/100, &op, nil)
	o.spans = newSpanLog(true)
	tr := o.spans.tracer()
	traced := fleetPhase(o, set, cfg, runs, cfg.workers, cfg.measure*20/100, &op, tr)
	single := fleetPhase(o, set, cfg, runs, 1, cfg.measure*20/100, &op, nil)
	o.layers["par.efficiency"] = untraced.rate() / (float64(cfg.workers) * single.rate())
	o.note("runs/s: %.0f on %d workers (%d calls), %.0f on one (%d calls)",
		untraced.rate(), cfg.workers, untraced.ops, single.rate(), single.ops)
	o.layers["trace.overhead_share"] = median(traced.latency)/median(untraced.latency) - 1

	if err := fleetReplicates(o, set, cfg, runs, op, tr); err != nil {
		return nil, err
	}
	if err := simLayers(o, set, cfg.measure*10/100, tr); err != nil {
		return nil, err
	}
	layerSelf(o, o.spans.selfTimes(), "gen.workload", "sim.run", "sim.compile")
	return o, nil
}

// fleetReplicates times one single-worker RunFleet call, then the
// benchmark's own loop over the same replicates: each workload sampled
// with gen.Stream and ACET.Sample the way the fleet engine samples it,
// then simulated with CompiledSim.RunWorkload. What the loop does not
// cover of the fleet's wall time is the fleet's reduction overhead.
func fleetReplicates(o *outcome, set task.Set, cfg config, runs, op int, tr *tracer) error {
	p := fleetParams(set, cfg.seed, op, runs, 1)
	t0 := time.Now()
	sum, err := fleet.Run(p)
	wall := time.Since(t0)
	if err == nil {
		err = checkFleetSummary(sum, runs)
	}
	o.check(err)
	if err != nil {
		return nil
	}

	c, err := sim.CompileSet(set)
	if err != nil {
		return err
	}
	acet := gen.DefaultACET()
	simCfg := sim.Config{Speedup: p.Speedup}
	var (
		res      sim.Result
		sc       sim.Scratch
		wl       sim.Workload
		jobs     int64
		loopTime time.Duration
	)
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		id := tr.begin("gen.workload", -1, int64(r))
		wl = sampleReplicate(wl[:0], set, p.Seed, r, p.Horizon, acet)
		tr.end(id)
		id = tr.begin("sim.run", -1, int64(r))
		err := c.RunWorkload(&res, &sc, wl, simCfg)
		tr.end(id)
		loopTime += time.Since(t0)
		if err != nil {
			return err
		}
		jobs += int64(len(wl))
	}
	if jobs != sum.JobsReleased {
		o.note("replicate loop released %d jobs, the fleet %d: gen.workload_us no longer mirrors the fleet's sampler",
			jobs, sum.JobsReleased)
	}
	o.layers["sim.jobs_per_run"] = float64(jobs) / float64(runs)
	o.layers["fleet.reduce_share"] = 1 - loopTime.Seconds()/wall.Seconds()
	return nil
}

// sampleReplicate draws replicate r's workload: per task, jittered
// sporadic releases at T(LO) spacing plus up to half a period, demands
// from the ACET bands, each task from its own (seed, r, task) stream.
func sampleReplicate(dst sim.Workload, set task.Set, seed int64, r int, horizon task.Time, acet gen.ACET) sim.Workload {
	var rnd gen.Stream
	for ti := range set {
		tk := &set[ti]
		rnd.Reseed(seed, r, ti)
		period := tk.Period[task.LO]
		jitter := int64(period / 2)
		at := task.Time(rnd.Int63n(int64(period)))
		for at < horizon {
			d := acet.Sample(&rnd, tk.Crit, tk.WCET[task.LO], tk.WCET[task.HI])
			dst = append(dst, sim.Arrival{Task: ti, At: at, Demand: d})
			at += period
			if jitter > 0 {
				at += task.Time(rnd.Int63n(jitter + 1))
			}
		}
	}
	sort.Slice(dst, func(i, k int) bool {
		if dst[i].At != dst[k].At {
			return dst[i].At < dst[k].At
		}
		return dst[i].Task < dst[k].Task
	})
	return dst
}

// simLayers times sim.CompileSet, and repeats mcs-bench's SimRunFMS body
// (one compiled run of FMS over 20 periods, every fifth job of each task
// overrunning, Result and Scratch reused) for d, reporting the median.
func simLayers(o *outcome, set task.Set, d time.Duration, tr *tracer) error {
	for i := 0; i < 200; i++ {
		id := tr.begin("sim.compile", -1, int64(i))
		_, err := sim.CompileSet(set)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	wl := sim.SynchronousPeriodic(set, 20*set.MaxPeriod(), func(_, seq int) bool { return seq%5 == 0 })
	c, err := sim.Compile(set, wl)
	if err != nil {
		return err
	}
	cfg := sim.Config{Speedup: rat.Two}
	var (
		res     sim.Result
		sc      sim.Scratch
		samples []float64
	)
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(samples) < 5; {
		t0 := time.Now()
		if err := c.RunInto(&res, &sc, cfg); err != nil {
			return err
		}
		samples = append(samples, float64(time.Since(t0))/1e3)
	}
	if len(res.Misses) != 0 {
		return errors.New("SimRunFMS workload missed a deadline at s = 2")
	}
	o.layers["sim.sync_fms_us"] = median(samples)
	o.note("SimRunFMS (mcs-bench's body): median %.1f µs over %d samples", median(samples), len(samples))
	return nil
}
