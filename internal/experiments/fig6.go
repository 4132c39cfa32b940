package experiments

import (
	"fmt"
	"math"
	"strings"

	"mcspeedup/internal/core"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/par"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/stats"
	"mcspeedup/internal/task"
	"mcspeedup/internal/textplot"
)

// Fig6Config scales the synthetic-task-set study of Fig. 6. The paper
// uses 500 task sets per utilization point.
type Fig6Config struct {
	SetsPerPoint int
	UBounds      []float64
	Seed         int64
	// Params defaults to gen.Defaults() (the Fig. 6 caption values).
	Params *gen.Params
	// Workers bounds the sweep parallelism (0 = all cores). Output is
	// identical for every worker count.
	Workers int `json:"-"`
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.SetsPerPoint <= 0 {
		c.SetsPerPoint = 100
	}
	if len(c.UBounds) == 0 {
		c.UBounds = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	if c.Seed == 0 {
		c.Seed = 2015
	}
	if c.Params == nil {
		p := gen.Defaults()
		c.Params = &p
	}
	return c
}

// Fig6Result reproduces Fig. 6:
// (a) the distribution of the minimum speedup s_min per system
// utilization (y = 2);
// (b) the median s_min per utilization for several degradation factors y;
// (c) the distribution of the resetting time Δ_R in milliseconds per
// utilization (y = 2, s = 3);
// (d) the median Δ_R per utilization for several (s, y) combinations.
type Fig6Result struct {
	Config Fig6Config

	UBounds []float64
	// Panel (a)/(c) raw distributions, indexed by utilization point.
	SMinDist  [][]float64
	ResetDist [][]float64 // milliseconds
	// Panel (b): YLabels[i] ↔ MedianSMin[i][uIdx].
	YLabels    []string
	MedianSMin [][]float64
	// Panel (d): SYLabels[i] ↔ MedianReset[i][uIdx] (milliseconds).
	SYLabels    []string
	MedianReset [][]float64
	// Infeasible counts sets for which no x made LO mode schedulable
	// (regenerated, matching the paper's setup where x always exists).
	Infeasible int
}

// fig6SetResult is the per-task-set unit of work: one generated base
// set, fully analyzed. NaN marks a panel entry the set did not produce
// (infeasible for that y, or an infinite Δ_R).
type fig6SetResult struct {
	infeasible int // regenerated LO-infeasible draws
	smin       float64
	reset      float64 // ms; NaN if infinite
	sminByY    []float64
	resetBySY  []float64
}

// Fig6 runs the study. For every generated base set, LO tasks are
// degraded by y, HI virtual deadlines get the minimal feasible x, then
// the exact analyses run. Sets are analyzed in parallel (Config.Workers)
// with one random substream per (utilization point, set index), and the
// per-set results are reduced in index order — the rendered output does
// not depend on the worker count.
func Fig6(cfg Fig6Config) (Fig6Result, error) {
	cfg = cfg.withDefaults()
	res := Fig6Result{Config: cfg, UBounds: cfg.UBounds}

	ys := []rat.Rat{rat.New(3, 2), rat.Two, rat.FromInt64(3)}
	for _, y := range ys {
		res.YLabels = append(res.YLabels, "y="+y.String())
	}
	sy := []struct {
		s, y rat.Rat
	}{
		{rat.Two, rat.Two},
		{rat.FromInt64(3), rat.Two},
		{rat.FromInt64(3), rat.FromInt64(3)},
	}
	for _, c := range sy {
		res.SYLabels = append(res.SYLabels, fmt.Sprintf("s=%v,y=%v", c.s, c.y))
	}
	res.MedianSMin = make([][]float64, len(ys))
	res.MedianReset = make([][]float64, len(sy))

	analyzeSet := func(pi, n int) (fig6SetResult, error) {
		rnd := gen.SubRand(cfg.Seed, pi, n)
		// One walker arena per set, and each Theorem-2 walk warm-starts
		// the next with its witness Δ (the per-y preparations of one set
		// share their decisive interval). Both stay inside this work
		// item, so the reduction order — and hence the -workers N output
		// — is untouched; the results themselves are bit-identical to
		// cold walks (core.Options.WarmWitness).
		scratch := new(core.Scratch)
		var warm core.SpeedupResult
		speedup := func(set task.Set) (core.SpeedupResult, error) {
			sp, err := core.MinSpeedupOpts(set, core.Options{
				Scratch:     scratch,
				WarmWitness: warm.WitnessDelta,
			})
			if err == nil {
				warm = sp
			}
			return sp, err
		}
		withScratch := core.Options{Scratch: scratch}
		out := fig6SetResult{
			sminByY:   make([]float64, len(ys)),
			resetBySY: make([]float64, len(sy)),
		}
		// Regenerate until the configuration is analyzable with the
		// reference degradation y = 2 (matches the paper's "x set to
		// the minimum to guarantee LO mode schedulability").
		var base task2
		for {
			cand := cfg.Params.MustSet(rnd, cfg.UBounds[pi])
			shaped, err := cand.DegradeLO(rat.Two)
			if err != nil {
				return out, err
			}
			if _, prepared, err := core.MinimalX(shaped); err == nil {
				base = task2{raw: cand, y2: prepared}
				break
			}
			out.infeasible++
		}

		// Panels (a) and (c) at y = 2 (and s = 3 for Δ_R).
		sp, err := speedup(base.y2)
		if err != nil {
			return out, err
		}
		out.smin = sp.Speedup.Float64()
		rr, err := core.ResetTimeOpts(base.y2, rat.FromInt64(3), withScratch)
		if err != nil {
			return out, err
		}
		out.reset = nan()
		if !rr.Reset.IsInf() {
			out.reset = rr.Reset.Float64() / gen.TicksPerMS
		}

		// Panel (b): s_min per y.
		for yi, y := range ys {
			out.sminByY[yi] = nan()
			prepared, err := base.prepared(y)
			if err != nil {
				continue // this y infeasible for this set
			}
			spy, err := speedup(prepared)
			if err != nil {
				return out, err
			}
			out.sminByY[yi] = spy.Speedup.Float64()
		}
		// Panel (d): Δ_R per (s, y).
		for ci, c := range sy {
			out.resetBySY[ci] = nan()
			prepared, err := base.prepared(c.y)
			if err != nil {
				continue
			}
			rry, err := core.ResetTimeOpts(prepared, c.s, withScratch)
			if err != nil {
				return out, err
			}
			if !rry.Reset.IsInf() {
				out.resetBySY[ci] = rry.Reset.Float64() / gen.TicksPerMS
			}
		}
		return out, nil
	}

	total := len(cfg.UBounds) * cfg.SetsPerPoint
	sets, err := par.Map(total, cfg.Workers, func(k int) (fig6SetResult, error) {
		return analyzeSet(k/cfg.SetsPerPoint, k%cfg.SetsPerPoint)
	})
	if err != nil {
		return res, err
	}

	for pi := range cfg.UBounds {
		var sminBox, resetBox []float64
		sminByY := make([][]float64, len(ys))
		resetBySY := make([][]float64, len(sy))
		for n := 0; n < cfg.SetsPerPoint; n++ {
			s := sets[pi*cfg.SetsPerPoint+n]
			res.Infeasible += s.infeasible
			sminBox = append(sminBox, s.smin)
			if !math.IsNaN(s.reset) {
				resetBox = append(resetBox, s.reset)
			}
			for yi := range ys {
				if !math.IsNaN(s.sminByY[yi]) {
					sminByY[yi] = append(sminByY[yi], s.sminByY[yi])
				}
			}
			for ci := range sy {
				if !math.IsNaN(s.resetBySY[ci]) {
					resetBySY[ci] = append(resetBySY[ci], s.resetBySY[ci])
				}
			}
		}
		res.SMinDist = append(res.SMinDist, sminBox)
		res.ResetDist = append(res.ResetDist, resetBox)
		for yi := range ys {
			res.MedianSMin[yi] = append(res.MedianSMin[yi], nanIfEmptyMedian(sminByY[yi]))
		}
		for ci := range sy {
			res.MedianReset[ci] = append(res.MedianReset[ci], nanIfEmptyMedian(resetBySY[ci]))
		}
	}
	return res, nil
}

// task2 caches the y = 2 preparation and re-derives others on demand.
type task2 struct {
	raw task.Set
	y2  task.Set
}

func (t task2) prepared(y rat.Rat) (task.Set, error) {
	if y.Eq(rat.Two) {
		return t.y2, nil
	}
	shaped, err := t.raw.DegradeLO(y)
	if err != nil {
		return nil, err
	}
	_, prepared, err := core.MinimalX(shaped)
	return prepared, err
}

func nan() float64 { return math.NaN() }

// Render emits all four panels.
func (r Fig6Result) Render() string {
	var b strings.Builder
	var boxA, boxC []textplot.BoxRow
	for i, u := range r.UBounds {
		if len(r.SMinDist[i]) > 0 {
			boxA = append(boxA, textplot.BoxRow{
				Label:   fmt.Sprintf("U=%.2f", u),
				Summary: stats.Summarize(r.SMinDist[i]),
			})
		}
		if len(r.ResetDist[i]) > 0 {
			boxC = append(boxC, textplot.BoxRow{
				Label:   fmt.Sprintf("U=%.2f", u),
				Summary: stats.Summarize(r.ResetDist[i]),
			})
		}
	}
	b.WriteString(textplot.Boxes("Fig. 6a — distribution of s_min per utilization (y = 2)", boxA, 56))
	b.WriteByte('\n')

	var seriesB []textplot.Series
	for i, lbl := range r.YLabels {
		seriesB = append(seriesB, textplot.Series{Name: lbl, Ys: r.MedianSMin[i]})
	}
	b.WriteString(textplot.Lines("Fig. 6b — median s_min vs. utilization (degradation impact)",
		r.UBounds, seriesB, 56, 12))
	b.WriteByte('\n')

	b.WriteString(textplot.Boxes("Fig. 6c — distribution of Δ_R [ms] per utilization (y = 2, s = 3)", boxC, 56))
	b.WriteByte('\n')

	var seriesD []textplot.Series
	for i, lbl := range r.SYLabels {
		seriesD = append(seriesD, textplot.Series{Name: lbl, Ys: r.MedianReset[i]})
	}
	b.WriteString(textplot.Lines("Fig. 6d — median Δ_R [ms] vs. utilization (speedup & degradation impact)",
		r.UBounds, seriesD, 56, 12))
	if r.Infeasible > 0 {
		fmt.Fprintf(&b, "\n(%d LO-infeasible draws regenerated)\n", r.Infeasible)
	}
	return b.String()
}

func nanIfEmptyMedian(vals []float64) float64 {
	if len(vals) == 0 {
		return nan()
	}
	return stats.Quantile(vals, 0.5)
}
