// Package gen synthesizes random dual-criticality task sets following the
// generation protocol of Baruah et al. (reference [4] of the paper), with
// the parameter ranges the paper states in its Fig. 6 and Fig. 7 captions:
// minimum inter-arrival times drawn from [2 ms, 2 s], per-task
// LO-criticality utilizations from [0.01, 0.2], and WCET uncertainty
// factors γ = C(HI)/C(LO) from a configurable range ([1, 3] for Fig. 6,
// 10 for Fig. 7). Tasks have implicit deadlines (Section V); the paper's
// experiments then apply the x (overrun preparation) and y (service
// degradation) transforms from eqs. (13)–(14).
//
// The generator "starts with an empty task set and continuously adds new
// random tasks to this set until certain system utilization U_bound is
// met" [4]: the growth target is [4]'s average system utilization
// U_avg = (U_LO(LO) + U_HI(HI))/2; a candidate task that would overshoot
// U_bound is re-drawn, and generation succeeds when U_avg lands in
// [U_bound − tol, U_bound].
//
// Times are integer ticks with 1 tick = 100 µs, so [2 ms, 2 s] spans
// [20, 20000] ticks and rounding error in C = U·T is at most 0.5 %.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TicksPerMS is the number of ticks per millisecond (1 tick = 100 µs).
const TicksPerMS = 10

// Params configures the random task generator.
type Params struct {
	// PeriodMin and PeriodMax bound the minimum inter-arrival times
	// (ticks). Periods are drawn log-uniformly so each decade is equally
	// represented, as is customary for [4]-style generators.
	PeriodMin, PeriodMax task.Time
	// UtilMin and UtilMax bound the per-task LO-criticality utilization.
	UtilMin, UtilMax float64
	// GammaMin and GammaMax bound the per-HI-task WCET uncertainty
	// factor γ = C(HI)/C(LO).
	GammaMin, GammaMax float64
	// ProbHI is the probability that a generated task is HI-criticality.
	ProbHI float64
	// Tol is the acceptance half-window under U_bound (default 0.02).
	Tol float64
	// MaxAttempts bounds redraws per added task (default 256).
	MaxAttempts int
}

// Defaults returns the Fig. 6 caption parameters: periods 2 ms–2 s,
// U(LO) ∈ [0.01, 0.2], γ ∈ [1, 3], an even HI/LO split.
func Defaults() Params {
	return Params{
		PeriodMin: 2 * TicksPerMS,
		PeriodMax: 2000 * TicksPerMS,
		UtilMin:   0.01,
		UtilMax:   0.2,
		GammaMin:  1,
		GammaMax:  3,
		ProbHI:    0.5,
	}
}

func (p Params) tol() float64 {
	if p.Tol <= 0 {
		return 0.02
	}
	return p.Tol
}

func (p Params) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 256
	}
	return p.MaxAttempts
}

// drawTask synthesizes one random task (without a name).
func (p Params) drawTask(rnd *rand.Rand, crit task.Crit) task.Task {
	logMin, logMax := math.Log(float64(p.PeriodMin)), math.Log(float64(p.PeriodMax))
	period := task.Time(math.Round(math.Exp(logMin + rnd.Float64()*(logMax-logMin))))
	if period < p.PeriodMin {
		period = p.PeriodMin
	}
	if period > p.PeriodMax {
		period = p.PeriodMax
	}
	u := p.UtilMin + rnd.Float64()*(p.UtilMax-p.UtilMin)
	cLO := task.Time(math.Round(u * float64(period)))
	if cLO < 1 {
		cLO = 1
	}
	if crit == task.LO {
		return task.NewImplicitLO("", period, cLO)
	}
	gamma := p.GammaMin + rnd.Float64()*(p.GammaMax-p.GammaMin)
	cHI := task.Time(math.Round(gamma * float64(cLO)))
	if cHI < cLO {
		cHI = cLO
	}
	if cHI > period {
		cHI = period // implicit deadline caps C(HI)
	}
	return task.NewImplicitHI("", period, cLO, cHI)
}

// grower is a task set under construction with running brackets
// (rat.Bracket) of [4]'s two utilizations, indexed by criticality:
// u[LO] = U_LO(LO) over the LO tasks at their LO-criticality WCETs,
// u[HI] = U_HI(HI) over the HI tasks at their HI-criticality WCETs, and
// f holds the float a utilization target is checked against: each sum
// rounded up exactly as task.Set.UtilCrit rounds it. Pricing a candidate
// task costs one bracket term and one rounding instead of a re-sum of the
// whole set. A bracket that cannot decide its rounding falls back to the
// exact re-sum of the grown set, so every f equals the UtilCrit of the
// same set.
type grower struct {
	set task.Set
	u   [2]rat.Bracket
	f   [2]float64
}

// with prices tk: the brackets and utilizations of the set grown by tk,
// without growing it.
func (g *grower) with(tk *task.Task) ([2]rat.Bracket, [2]float64) {
	u, f, c := g.u, g.f, tk.Crit
	u[c] = u[c].Plus(int64(tk.WCET[c]), int64(tk.Period[c]))
	if r, ok := u[c].Round(true); ok {
		f[c] = r.Float64()
		return u, f
	}
	exact := g.set.UtilCritSum(c, c).Plus(rat.New(int64(tk.WCET[c]), int64(tk.Period[c])))
	f[c] = exact.Round(true).Float64()
	return u, f
}

// add appends tk, named by its position, with the values with returned
// for it.
func (g *grower) add(tk task.Task, u [2]rat.Bracket, f [2]float64) {
	tk.Name = taskName(len(g.set))
	g.set = append(g.set, tk)
	g.u, g.f = u, f
}

// push appends tk, named by its position.
func (g *grower) push(tk task.Task) {
	u, f := g.with(&tk)
	g.add(tk, u, f)
}

// uAvg is the growth metric of [4]'s experiments: the average system
// utilization (U_LO(LO) + U_HI(HI))/2.
func uAvg(f [2]float64) float64 { return (f[task.LO] + f[task.HI]) / 2 }

// Set grows a random task set until its average utilization reaches
// uBound (within tolerance). ok is false when the target could not be hit
// within the redraw budget — callers should redraw with fresh randomness.
// The result always contains at least one HI and one LO task so the
// mixed-criticality transforms are meaningful.
func (p Params) Set(rnd *rand.Rand, uBound float64) (task.Set, bool) {
	var g grower
	// Seed with one task of each criticality.
	g.push(p.drawTask(rnd, task.HI))
	g.push(p.drawTask(rnd, task.LO))
	for attempts := 0; uAvg(g.f) < uBound-p.tol(); {
		crit := task.LO
		if rnd.Float64() < p.ProbHI {
			crit = task.HI
		}
		cand := p.drawTask(rnd, crit)
		u, f := g.with(&cand)
		if uAvg(f) > uBound {
			attempts++
			if attempts > p.maxAttempts() {
				return nil, false
			}
			continue
		}
		g.add(cand, u, f)
	}
	if uAvg(g.f) > uBound {
		return nil, false
	}
	if err := g.set.Validate(); err != nil {
		return nil, false
	}
	return g.set, true
}

// maxDraws bounds DrawSet's calls to Set. Targets the generator can hit
// succeed within a few draws; one it cannot hit (an average utilization
// below what the seed HI+LO pair alone contributes, say) fails every
// draw, and must end in an error rather than an endless loop.
const maxDraws = 10000

// DrawSet retries Set with fresh randomness until it succeeds, and fails
// after maxDraws draws with an error naming the target.
func (p Params) DrawSet(rnd *rand.Rand, uBound float64) (task.Set, error) {
	for i := 0; i < maxDraws; i++ {
		if s, ok := p.Set(rnd, uBound); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("gen: target average utilization %g not reached (window [%g, %g]) in %d draws",
		uBound, uBound-p.tol(), uBound, maxDraws)
}

// MustSet is DrawSet for targets known to be reachable: it panics with
// DrawSet's error when the target cannot be hit.
func (p Params) MustSet(rnd *rand.Rand, uBound float64) task.Set {
	s, err := p.DrawSet(rnd, uBound)
	if err != nil {
		panic(err)
	}
	return s
}

// SetWithTargets grows a set to hit the Fig. 7 targets independently:
// U_HI = Σ_{χ=HI} C(HI)/T within ±tol of uHI, and U_LO = Σ_{χ=LO}
// C(LO)/T within ±tol of uLO (the U_χ notation of the figure). The last
// task of each criticality uses the longest period in range so its
// utilization can be tuned to land inside the window.
func (p Params) SetWithTargets(rnd *rand.Rand, uHI, uLO, tol float64) (task.Set, bool) {
	var g grower
	grow := func(crit task.Crit, target float64, maxStep float64) bool {
		attempts := 0
		for g.f[crit] < target-tol {
			remaining := target - g.f[crit]
			if remaining <= maxStep {
				// Tailor a closing task on the longest period, where
				// the utilization granularity 1/PeriodMax is finest.
				period := p.PeriodMax
				if crit == task.HI {
					cHI := task.Time(math.Round(remaining * float64(period)))
					if cHI < 1 {
						cHI = 1
					}
					gamma := p.GammaMin + rnd.Float64()*(p.GammaMax-p.GammaMin)
					cLO := task.Time(math.Round(float64(cHI) / gamma))
					if cLO < 1 {
						cLO = 1
					}
					if cLO > cHI {
						cLO = cHI
					}
					g.push(task.NewImplicitHI("", period, cLO, cHI))
				} else {
					cLO := task.Time(math.Round(remaining * float64(period)))
					if cLO < 1 {
						cLO = 1
					}
					g.push(task.NewImplicitLO("", period, cLO))
				}
				continue
			}
			cand := p.drawTask(rnd, crit)
			u, f := g.with(&cand)
			if f[crit] > target+tol {
				attempts++
				if attempts > p.maxAttempts() {
					return false
				}
				continue
			}
			g.add(cand, u, f)
		}
		return g.f[crit] <= target+tol
	}
	maxStepHI := p.UtilMax * p.GammaMax
	if maxStepHI > 1 {
		maxStepHI = 1 // C(HI) is capped at the implicit deadline
	}
	okHI := grow(task.HI, uHI, maxStepHI)
	okLO := grow(task.LO, uLO, p.UtilMax)
	if !okHI || !okLO || len(g.set) == 0 {
		return nil, false
	}
	if err := g.set.Validate(); err != nil {
		return nil, false
	}
	return g.set, true
}

func taskName(i int) string {
	// a, b, ..., z, t26, t27, ...
	if i < 26 {
		return string(rune('a' + i))
	}
	return "t" + strconv.Itoa(i)
}
