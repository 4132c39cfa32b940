package experiments

import (
	"fmt"
	"strings"

	"mcspeedup/internal/core"
	"mcspeedup/internal/edfvd"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/par"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
	"mcspeedup/internal/textplot"
)

// Fig7Config scales the schedulability-region study of Fig. 7. The paper
// generates over 10000 task sets over the (U_HI, U_LO) grid with γ = 10,
// terminates LO tasks in HI mode, and accepts a set as schedulable under
// temporary speedup when it is schedulable at s = 2 with a resetting time
// of at most 5 s.
type Fig7Config struct {
	SetsPerPoint int
	// Grid holds the axis values used for both U_HI and U_LO.
	Grid []float64
	Seed int64
	// Speed is the temporary speedup factor (paper: 2).
	Speed rat.Rat
	// ResetLimit is the maximum allowed resetting time in ticks
	// (paper: 5 s = 50000 ticks).
	ResetLimit task.Time
	// Workers bounds the sweep parallelism (0 = all cores). Output is
	// identical for every worker count.
	Workers int `json:"-"`
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.SetsPerPoint <= 0 {
		c.SetsPerPoint = 20
	}
	if len(c.Grid) == 0 {
		for u := 0.1; u < 0.96; u += 0.1 {
			c.Grid = append(c.Grid, u)
		}
	}
	if c.Seed == 0 {
		c.Seed = 2015
	}
	if c.Speed.Sign() <= 0 {
		c.Speed = rat.Two
	}
	if c.ResetLimit <= 0 {
		c.ResetLimit = 5000 * gen.TicksPerMS
	}
	return c
}

// Fig7Result reproduces Fig. 7: the fraction of schedulable task sets
// over the (U_HI, U_LO) grid, under temporary speedup versus without it,
// plus the EDF-VD utilization test as a classical reference.
type Fig7Result struct {
	Config Fig7Config
	Grid   []float64
	// Fractions indexed [uLoIdx][uHiIdx].
	WithSpeedup [][]float64
	NoSpeedup   [][]float64
	EDFVD       [][]float64
	// GenFailures counts grid cells × draws where the generator could
	// not hit the utilization targets.
	GenFailures int
}

// fig7DrawResult classifies one generated task set of one grid cell.
type fig7DrawResult struct {
	genFail                bool
	okVD, okPlain, okSpeed bool
}

// Fig7 runs the study: per grid cell, SetsPerPoint random sets with
// γ = 10 and terminated LO tasks; a set counts as schedulable under
// speedup when some x yields LO-mode feasibility, the exact HI-mode test
// passes at Config.Speed, and Δ_R(Speed) ≤ ResetLimit. Draws run in
// parallel (Config.Workers) with one random substream per
// (cell, draw index); the reduction is index-ordered, so the result is
// identical for every worker count.
func Fig7(cfg Fig7Config) (Fig7Result, error) {
	cfg = cfg.withDefaults()
	res := Fig7Result{Config: cfg, Grid: cfg.Grid}

	params := gen.Defaults()
	params.GammaMin, params.GammaMax = 10, 10

	limit := rat.FromInt64(int64(cfg.ResetLimit))
	cells := len(cfg.Grid) * len(cfg.Grid)

	// One work item per grid cell: the cell's draws run sequentially so
	// each exact speedup walk can warm-start the next with its witness Δ
	// and share one walker arena (same-cell sets target the same
	// utilizations and tend to share their decisive interval). Witness
	// and Scratch never cross work items, and random substreams are still
	// per (cell, draw), so the output stays identical for every worker
	// count — warm-started walks return bit-identical results
	// (core.Options.WarmWitness).
	analyzeCell := func(cell int) ([]fig7DrawResult, error) {
		li, hi := cell/len(cfg.Grid), cell%len(cfg.Grid)
		uLO, uHI := cfg.Grid[li], cfg.Grid[hi]
		scratch := new(core.Scratch)
		var warm core.SpeedupResult
		outs := make([]fig7DrawResult, cfg.SetsPerPoint)
		for n := range outs {
			rnd := gen.SubRand(cfg.Seed, cell, n)
			out := &outs[n]
			base, ok := params.SetWithTargets(rnd, uHI, uLO, 0.025)
			if !ok {
				out.genFail = true
				continue
			}
			if vd, err := edfvd.Analyze(base); err == nil && vd.Schedulable {
				out.okVD = true
			}
			terminated := base.TerminateLO()
			_, prepared, err := core.MinimalX(terminated)
			if err != nil {
				continue // not even LO-mode feasible
			}
			sp, err := core.MinSpeedupOpts(prepared, core.Options{
				Scratch:     scratch,
				WarmWitness: warm.WitnessDelta,
			})
			if err != nil {
				return nil, err
			}
			warm = sp
			if sp.Speedup.Cmp(rat.One) <= 0 {
				out.okPlain = true
				out.okSpeed = true // speedup subsumes the no-speedup case
				continue
			}
			if sp.Speedup.Cmp(cfg.Speed) > 0 {
				continue
			}
			rr, err := core.ResetTimeOpts(prepared, cfg.Speed, core.Options{Scratch: scratch})
			if err != nil {
				return nil, err
			}
			if !rr.Reset.IsInf() && rr.Reset.Cmp(limit) <= 0 {
				out.okSpeed = true
			}
		}
		return outs, nil
	}

	cellDraws, err := par.Map(cells, cfg.Workers, analyzeCell)
	if err != nil {
		return res, err
	}

	res.WithSpeedup = make([][]float64, len(cfg.Grid))
	res.NoSpeedup = make([][]float64, len(cfg.Grid))
	res.EDFVD = make([][]float64, len(cfg.Grid))
	for li := range cfg.Grid {
		res.WithSpeedup[li] = make([]float64, len(cfg.Grid))
		res.NoSpeedup[li] = make([]float64, len(cfg.Grid))
		res.EDFVD[li] = make([]float64, len(cfg.Grid))
		for hi := range cfg.Grid {
			cell := li*len(cfg.Grid) + hi
			var okSpeed, okPlain, okVD, total int
			for n := 0; n < cfg.SetsPerPoint; n++ {
				d := cellDraws[cell][n]
				if d.genFail {
					res.GenFailures++
					continue
				}
				total++
				if d.okVD {
					okVD++
				}
				if d.okPlain {
					okPlain++
				}
				if d.okSpeed {
					okSpeed++
				}
			}
			if total == 0 {
				total = 1
			}
			res.WithSpeedup[li][hi] = float64(okSpeed) / float64(total)
			res.NoSpeedup[li][hi] = float64(okPlain) / float64(total)
			res.EDFVD[li][hi] = float64(okVD) / float64(total)
		}
	}
	return res, nil
}

// Render emits the three region maps.
func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString(textplot.Heatmap(
		fmt.Sprintf("Fig. 7 — schedulable fraction with temporary speedup (s = %v, Δ_R ≤ %d ms)",
			r.Config.Speed, r.Config.ResetLimit/gen.TicksPerMS),
		"U_HI", "U_LO", r.Grid, r.Grid, r.WithSpeedup))
	b.WriteByte('\n')
	b.WriteString(textplot.Heatmap(
		"Fig. 7 (baseline) — schedulable fraction without speedup (s = 1)",
		"U_HI", "U_LO", r.Grid, r.Grid, r.NoSpeedup))
	b.WriteByte('\n')
	b.WriteString(textplot.Heatmap(
		"Fig. 7 (reference) — EDF-VD utilization-test acceptance",
		"U_HI", "U_LO", r.Grid, r.Grid, r.EDFVD))
	if r.GenFailures > 0 {
		fmt.Fprintf(&b, "\n(%d generator draws missed their utilization targets)\n", r.GenFailures)
	}
	return b.String()
}
