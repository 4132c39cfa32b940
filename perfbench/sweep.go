package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcspeedup/internal/core"
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// sweepUBounds are the utilization bounds of Figs. 6 and 7; set i uses
// bound i mod 6, with the Fig. 6 generator (γ ∈ [1, 3]) on even rounds of
// six and the Fig. 7 one (γ = 10) on odd rounds.
var sweepUBounds = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// sweepResetSpeeds are the speeds Δ_R is computed at (Fig. 6 panels c/d).
var sweepResetSpeeds = [2]rat.Rat{rat.Two, rat.FromInt64(3)}

// maxRegen bounds the redraws of a set whose LO mode no x can save.
const maxRegen = 1000

func sweepParams(i int) (gen.Params, float64) {
	p := gen.Defaults()
	if i/len(sweepUBounds)%2 == 1 {
		p.GammaMin, p.GammaMax = 10, 10
	}
	return p, sweepUBounds[i%len(sweepUBounds)]
}

// sweepSet is one corpus set's trip through the Fig. 6 pipeline.
type sweepSet struct {
	shaped   task.Set // the generated set with LO tasks degraded by y = 2
	prepared task.Set // shaped with the minimal x applied
	x        rat.Rat
	loOK     bool
	sp       core.SpeedupResult
	reset    [2]core.ResetResult // at sweepResetSpeeds
	y        rat.Rat             // MinimalY at cap 2, or yErr
	ySet     task.Set
	yErr     error
	xLo, xHi rat.Rat // FeasibleXWindow at cap 2, or xErr
	xErr     error
}

// analyzeSweepSet runs corpus set i through gen → MinimalX → LO test →
// MinSpeedup → ResetTime at s = 2 and 3 → MinimalY and FeasibleXWindow
// at cap 2, redrawing from the set's own stream while no x makes LO mode
// schedulable, so the same seed and index give the same set whatever
// goroutine draws it. sc is the calling goroutine's arena; the design
// searches warm-start at this set's own Theorem-2 witness.
func analyzeSweepSet(seed int64, i int, sc *core.Scratch, tr *tracer) (sweepSet, error) {
	op := int64(i)
	root := tr.begin("sweep.set", -1, op)
	defer tr.end(root)
	var r sweepSet
	rnd := gen.SubRand(seed, pointSweepSet, i)
	params, u := sweepParams(i)
	for attempt := 0; ; attempt++ {
		if attempt == maxRegen {
			return r, fmt.Errorf("no LO-feasible draw in %d attempts", maxRegen)
		}
		id := tr.begin("gen.set", root, op)
		shaped, err := params.MustSet(rnd, u).DegradeLO(rat.Two)
		tr.end(id)
		if err != nil {
			return r, err
		}
		id = tr.begin("core.minimal_x", root, op)
		r.x, r.prepared, err = core.MinimalX(shaped)
		tr.end(id)
		if err == nil {
			r.shaped = shaped
			break
		}
	}
	var err error
	id := tr.begin("core.lo_test", root, op)
	r.loOK, err = core.SchedulableLO(r.prepared)
	tr.end(id)
	if err != nil {
		return r, err
	}
	opts := core.Options{Scratch: sc}
	id = tr.begin("core.speedup", root, op)
	r.sp, err = core.MinSpeedupOpts(r.prepared, opts)
	tr.end(id)
	if err != nil {
		return r, err
	}
	for j, s := range sweepResetSpeeds {
		id = tr.begin("core.reset", root, op)
		r.reset[j], err = core.ResetTimeOpts(r.prepared, s, opts)
		tr.end(id)
		if err != nil {
			return r, err
		}
	}
	warm := core.Options{Scratch: sc, WarmWitness: r.sp.WitnessDelta}
	id = tr.begin("core.design", root, op)
	r.y, r.ySet, r.yErr = core.MinimalYOpts(r.prepared, rat.Two, warm)
	tr.end(id)
	id = tr.begin("core.design", root, op)
	r.xLo, r.xHi, r.xErr = core.FeasibleXWindowOpts(r.shaped, rat.Two, warm)
	tr.end(id)
	return r, nil
}

// checkSweepSet verifies one set's results against the paper's closed
// forms and definitions, never against the engine call that made them.
func checkSweepSet(r sweepSet) error {
	if !r.loOK {
		return errors.New("MinimalX output is not LO-mode schedulable")
	}
	smin := r.sp.Speedup
	if cf := core.ClosedFormSpeedup(r.prepared); smin.Cmp(cf) > 0 {
		return fmt.Errorf("s_min %v exceeds the Lemma-6 bound %v", smin, cf)
	}
	if r.sp.Exact {
		// Theorem 2's supremum is attained at the witness Δ (or is
		// U_HI in the Δ → ∞ limit): recompute ΣDBF_HI(Δ)/Δ there.
		w := r.sp.WitnessDelta
		at := r.prepared.Util(task.HI)
		if w > 0 {
			at = rat.New(int64(dbf.SetHIMode(r.prepared, w)), int64(w))
		}
		if !at.Eq(smin) {
			return fmt.Errorf("s_min %v but ΣDBF_HI(%d)/%d = %v", smin, w, w, at)
		}
	}
	if ok, err := core.SchedulableHI(r.prepared, smin); err != nil || !ok {
		return fmt.Errorf("not HI-mode schedulable at its own s_min %v (err %v)", smin, err)
	}
	uHI := r.prepared.Util(task.HI)
	for j, s := range sweepResetSpeeds {
		reset := r.reset[j].Reset
		if s.Cmp(uHI) <= 0 != reset.IsInf() {
			return fmt.Errorf("Δ_R %v at speed %v with U_HI %v", reset, s, uHI)
		}
		if cf := core.ClosedFormReset(r.prepared, s); !cf.IsInf() && reset.Cmp(cf) > 0 {
			return fmt.Errorf("Δ_R %v at speed %v exceeds the Lemma-7 bound %v", reset, s, cf)
		}
	}
	if r.yErr == nil {
		degraded, err := r.prepared.DegradeLO(r.y)
		if err != nil || r.y.Cmp(rat.One) < 0 || degraded.Fingerprint() != r.ySet.Fingerprint() {
			return fmt.Errorf("MinimalY returned y = %v with a set other than DegradeLO(y)", r.y)
		}
		if ok, err := core.SchedulableHI(r.ySet, rat.Two); err != nil || !ok {
			return fmt.Errorf("MinimalY's set misses the speed cap 2 (err %v)", err)
		}
	} else if ok, err := core.SchedulableHI(r.prepared.TerminateLO(), rat.Two); err != nil || ok {
		return fmt.Errorf("MinimalY found no y, yet terminating LO meets cap 2: %v", r.yErr)
	}
	if r.xErr == nil {
		if !r.xLo.Eq(r.x) || r.xHi.Cmp(r.xLo) < 0 {
			return fmt.Errorf("x window [%v, %v] but MinimalX gives %v", r.xLo, r.xHi, r.x)
		}
	} else if smin.Cmp(rat.Two) <= 0 {
		return fmt.Errorf("empty x window, yet s_min %v at the minimal x meets cap 2: %v", smin, r.xErr)
	}
	return nil
}

// sweepTally is one goroutine's (or, merged, a phase's) sweep counts.
type sweepTally struct {
	sets          int
	busy          time.Duration // pipeline time, checks excluded
	latency       []float64     // ms per set
	events, jumps int64
	resetEvents   int64
	mallocs       uint64 // counted only when countAllocs is set
	failures      []error
	rated         float64 // sets/s
}

// sweepPhase analyzes corpus sets 0, 1, 2, … on workers goroutines for
// d and checks each result. Throughput is each goroutine's sets over its
// pipeline time, summed. With countAllocs (one worker only) it brackets
// each pipeline call with runtime.ReadMemStats.
func sweepPhase(cfg config, workers int, d time.Duration, log *spanLog, countAllocs bool) sweepTally {
	tallies := make([]sweepTally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *sweepTally, tr *tracer) {
			defer wg.Done()
			sc := new(core.Scratch)
			var m0, m1 runtime.MemStats
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if countAllocs {
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				r, err := analyzeSweepSet(cfg.seed, i, sc, tr)
				el := time.Since(t0)
				if countAllocs {
					runtime.ReadMemStats(&m1)
					t.mallocs += m1.Mallocs - m0.Mallocs
				}
				t.sets++
				t.busy += el
				t.latency = append(t.latency, ms(el))
				if err == nil {
					err = checkSweepSet(r)
				}
				if err != nil {
					t.failures = append(t.failures, fmt.Errorf("sweep set %d: %w", i, err))
				}
				t.events += int64(r.sp.Events)
				t.jumps += int64(r.sp.Jumps)
				t.resetEvents += int64(r.reset[0].Events + r.reset[1].Events)
			}
		}(&tallies[w], log.tracer())
	}
	wg.Wait()
	var all sweepTally
	for _, t := range tallies {
		all.sets += t.sets
		all.latency = append(all.latency, t.latency...)
		all.events += t.events
		all.jumps += t.jumps
		all.resetEvents += t.resetEvents
		all.mallocs += t.mallocs
		all.failures = append(all.failures, t.failures...)
		if t.busy > 0 {
			all.rated += float64(t.sets) / t.busy.Seconds()
		}
	}
	return all
}

// count folds a phase's checked sets into the outcome.
func (t sweepTally) count(o *outcome) {
	o.attempted += t.sets
	for _, err := range t.failures {
		o.fail("%v", err)
	}
}

func runSweep(cfg config) (*outcome, error) {
	o := newOutcome()
	// Set-up warms the code, heap and each goroutine's arena on a fixed
	// corpus, the same for every seed so set-up does the same work in
	// every run; it is not part of the measured corpus.
	const warmSeed = 0
	warmups := 64
	if cfg.small {
		warmups = 2
	}
	err := timeSetup(cfg, o, func() error {
		var wg sync.WaitGroup
		errs := make([]error, cfg.workers)
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := new(core.Scratch)
				for i := 0; i < warmups; i++ {
					if _, err := analyzeSweepSet(warmSeed, w*warmups+i, sc, nil); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		t := sweepPhase(cfg, cfg.workers, cfg.measure, nil, false)
		t.count(o)
		o.latency, o.opsRate = t.latency, t.rated
		o.note("%d sets", t.sets)
		return o, nil
	}

	untraced := sweepPhase(cfg, cfg.workers, cfg.measure*35/100, nil, false)
	untraced.count(o)
	o.spans = newSpanLog(true)
	traced := sweepPhase(cfg, cfg.workers, cfg.measure*35/100, o.spans, false)
	traced.count(o)
	single := sweepPhase(cfg, 1, cfg.measure*30/100, nil, true)
	single.count(o)

	layerSelf(o, o.spans.selfTimes(), "gen.set", "core.minimal_x", "core.lo_test", "core.speedup", "core.reset", "core.design")
	sets := float64(traced.sets)
	o.layers["core.speedup_events"] = float64(traced.events) / sets
	o.layers["core.speedup_jumps"] = float64(traced.jumps) / sets
	o.layers["core.reset_events"] = float64(traced.resetEvents) / sets
	o.layers["core.allocs_per_set"] = float64(single.mallocs) / float64(single.sets)
	o.layers["par.efficiency"] = untraced.rated / (float64(cfg.workers) * single.rated)
	o.layers["trace.overhead_share"] = median(traced.latency)/median(untraced.latency) - 1
	o.note("sets: %d untraced, %d traced, %d on one goroutine", untraced.sets, traced.sets, single.sets)
	return o, nil
}
