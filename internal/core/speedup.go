// Package core implements the paper's primary contribution: computing the
// minimum temporary processor speedup that guarantees HI-mode EDF
// schedulability of a dual-criticality task set (Theorem 2), bounding the
// service resetting time after which the system can safely return to LO
// mode and nominal speed (Theorem 4 / Corollary 5), the closed-form
// trade-off bounds for the implicit-deadline special case (Lemmas 6 and
// 7), and the supporting LO-mode EDF schedulability test and minimal
// virtual-deadline search.
//
// All computations are exact over integers and rationals. The HI-mode
// demand curves are continuous piecewise-linear functions (see package
// dbf); both the speedup supremum and the resetting-time crossing are
// located by walking their slope-change events in increasing order, which
// terminates in pseudo-polynomial time by the linear upper bounds
// DBF_HI(τ_i, Δ) ≤ U_i(HI)·Δ + C_i(HI)·(T_i − e_i)/T_i, with e_i the
// task's carry-over ramp end (dbf.Plan.Intercept), and
// ADB_HI(τ_i, Δ) ≤ U_i(HI)·Δ + 2·C_i(HI).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Options tunes the event walks. The zero value selects defaults.
type Options struct {
	// MaxEvents caps the number of slope-change events examined before a
	// walk gives up and reports an inexact (but safe) result.
	// Defaults to 1_000_000.
	MaxEvents int

	// Scratch, when non-nil, is a caller-owned arena whose walker
	// storage the analyses reuse instead of the package pool; see
	// Scratch. It must not be shared between concurrent goroutines.
	Scratch *Scratch

	// WarmWitness, when positive, is an interval length Δ whose
	// demand/length ratio primes the pruned Theorem-2 walk's skip cutoff
	// before the walk's own running maximum has caught up — typically the
	// WitnessDelta of an adjacent design point's walk. Soundness does not
	// depend on the value: the ratio at any single Δ > 0 lower-bounds the
	// supremum, and the skip certificate is strict, so the result
	// (including WitnessDelta) is identical for every choice; a witness
	// near the true supremum merely skips more.
	WarmWitness task.Time
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 1_000_000
	}
	return o.MaxEvents
}

// SpeedupResult reports the outcome of the Theorem-2 computation.
type SpeedupResult struct {
	// Speedup is a speedup factor guaranteeing HI-mode schedulability.
	// When Exact is true it is the exact minimum
	// s_min = sup_{Δ≥0} Σ_i DBF_HI(τ_i, Δ)/Δ; otherwise it is a safe
	// upper bound on s_min.
	Speedup rat.Rat
	// LowerBound is the largest demand/length ratio witnessed during the
	// walk; the true s_min lies in [LowerBound, Speedup]. When Exact is
	// true the two coincide.
	LowerBound rat.Rat
	// Exact reports whether Speedup is the exact supremum.
	Exact bool
	// WitnessDelta is an interval length attaining the supremum, or 0
	// when the supremum is only approached in the Δ→∞ limit (where the
	// ratio tends to the HI-mode utilization).
	WitnessDelta task.Time
	// Events is the number of slope-change events examined one by one.
	// It is never higher — and usually far lower — than the plain walk
	// of eq. (8) that visits every event, which is the measurable win
	// the benchmarks track.
	Events int
	// Jumps is the number of bulk skips the walk took: each jump
	// fast-forwarded the walker past a run of events the incumbent
	// certificate proved irrelevant.
	Jumps int
}

// MinSpeedup computes the minimum HI-mode processor speedup factor of
// Theorem 2 with default options.
func MinSpeedup(s task.Set) (SpeedupResult, error) {
	return MinSpeedupOpts(s, Options{})
}

// MinSpeedupOpts computes the minimum HI-mode processor speedup factor
//
//	s_min = max_{Δ ≥ 0} ( Σ_i DBF_HI(τ_i, Δ) ) / Δ             (eq. (8))
//
// by walking the slope-change events of the summed piecewise-linear demand
// curve. On any linear segment the ratio demand/Δ is monotone, so the
// supremum over [0, Δ_last] is attained at an event point; and since
// Σ_i DBF_HI(Δ) ≤ U_HI·Δ + B, with B = Σ_i ⌈C_i(HI)·(T_i − e_i)/T_i⌉
// the intercept of the tight envelope (e_i the ramp end; see
// dbf.Plan.Intercept, B ≤ ΣC_i(HI)), no event beyond B/(best − U_HI) can
// improve a running maximum best > U_HI, which bounds the walk. If the
// running maximum never exceeds the HI-mode
// utilization U_HI (the ratio's Δ→∞ limit), the walk additionally stops
// once Δ passes the hyperperiod of the HI-mode periods — by the exact
// periodicity DBF_HI(Δ+T) = DBF_HI(Δ)+C(HI), the supremum is then
// max(best, U_HI) exactly. Only if both stopping rules are out of reach
// within MaxEvents is the result inexact, in which case Speedup is the
// safe envelope max(best, U_HI + B/Δ_last).
//
// The walk additionally skips whole runs of events it can prove
// irrelevant. Let bound ≤ s_min be a proven lower
// bound on the supremum (the running maximum, primed by seedBound). The
// summed curve is non-decreasing, so for every Δ in (a, b]
//
//	value(Δ)/Δ ≤ value(b)/Δ < value(b)/a ,
//
// strictly because Δ > a. Hence a single O(n) evaluation showing
// value(b) ≤ bound·a certifies that every event in (a, b] has ratio
// strictly below bound ≤ s_min: none can become the running maximum, so
// the walker fast-forwards to b (hiWalker.SkipTo) without visiting them.
// The strictness is what keeps the result bit-identical: the first event
// attaining any new maximum — in particular the supremum's WitnessDelta —
// has ratio ≥ bound and therefore always fails the certificate and is
// examined. Skips are capped at hyperperiod−1 so that stopping rule 2
// still fires at exactly the same event with exactly the same running
// maximum as a walk visiting every event (seedBound's probe positions
// stay below the hyperperiod for the same reason; see its comment).
func MinSpeedupOpts(s task.Set, o Options) (SpeedupResult, error) {
	if err := s.Validate(); err != nil {
		return SpeedupResult{}, err
	}
	// Directed bounds on the HI-mode utilization: the upper bound keeps
	// the stopping rules sound, the lower bound keeps LowerBound honest.
	// They coincide except for very large sets with coprime periods.
	uLo, uHi := s.UtilBounds(task.HI)
	hyper, hyperOK := dbf.HIHyperperiod(s)
	return minSpeedupWalk(s, uLo, uHi, hyper, hyperOK, o)
}

// minSpeedupState is the Theorem-2 walk over a demand state: the
// per-call Validate pass and the aggregate folds of MinSpeedupOpts are
// replaced by the state's cached values, which are those folds' results,
// so an edit that keeps the HI-mode caches pays only the walk, which the
// warm witness in o prunes to a handful of events.
func minSpeedupState(st *dbf.SetState, o Options) (SpeedupResult, error) {
	uLo, uHi := st.UtilBounds(task.HI)
	hyper, hyperOK := st.HIHyperperiod()
	return minSpeedupWalk(st.Tasks(), uLo, uHi, hyper, hyperOK, o)
}

// minSpeedupWalk is the shared body of MinSpeedupOpts and
// minSpeedupState: the event walk of eq. (8) given the already-derived
// aggregates (HI-utilization bounds and the HI hyperperiod). The
// envelope intercept comes from the walker's compiled plan.
func minSpeedupWalk(s task.Set, uLo, uHi rat.Rat, hyper task.Time, hyperOK bool, o Options) (SpeedupResult, error) {
	// Demand in a zero-length interval forces infinite speedup (the
	// paper's discussion under eq. (8)). Validation rules this out
	// (D(LO) < D(HI) for HI tasks), but guard anyway.
	if v := dbf.SetHIMode(s, 0); v > 0 {
		return SpeedupResult{Speedup: rat.PosInf, LowerBound: rat.PosInf, Exact: true}, nil
	}

	// The running maximum lives as a raw (unnormalized) ratio bestV/bestP
	// for the whole walk; the rat.Rat (whose construction pays a gcd) is
	// materialized only at returns and on stopping rule 1's rare exact
	// confirmation.
	var bestV task.Time
	bestP := task.Time(1)
	var witness task.Time
	var pos task.Time
	w := o.acquireWalker(s, dbf.KindDBF)
	defer o.releaseWalker(w)
	// The walker's columnar plan backs the certificate probes below and
	// carries the envelope intercept B of the stopping rules.
	plan := w.Plan()
	icpt := plan.Intercept()
	// The skip certificate's threshold, kept as a raw ratio cutV/cutP:
	// cutoff = max(best, seed), a proven lower bound on the supremum,
	// refreshed only when best improves. bestF/uHiF/icptF are float64
	// screens for stopping rule 1 (see below). Together they keep every
	// per-event comparison in plain integer / float arithmetic.
	seed := seedBound(plan, o.WarmWitness, hyper, hyperOK)
	cutV, cutP := task.Time(seed.Num()), task.Time(seed.Den())
	// The certificate needs a strictly positive cutoff (a zero lower
	// bound certifies nothing); tracked as a bool so the hot loop never
	// re-derives the sign from the raw numerator.
	cutPositive := seed.Sign() > 0
	bestF := 0.0
	uHiF := uHi.Float64()
	icptF := float64(icpt)
	events, jumps := 0, 0
	var chunk task.Time
	for ; events < o.maxEvents(); events++ {
		if !w.Next() {
			// Every task is terminated: no HI-mode demand at all.
			return SpeedupResult{Speedup: rat.Zero, LowerBound: rat.Zero, Exact: true, Events: events, Jumps: jumps}, nil
		}
		pos = w.Pos()
		v := w.Value()
		// v/pos > best, exactly, via 128-bit cross multiplication — no
		// per-event rational normalization.
		if ratioGreater(v, pos, bestV, bestP) {
			bestV, bestP = v, pos
			// v and pos are exactly representable (< 2^53), so the
			// correctly rounded quotient equals rat.New(v, pos).Float64().
			bestF = float64(v) / float64(pos)
			if ratioGreater(bestV, bestP, cutV, cutP) {
				cutV, cutP = bestV, bestP
				cutPositive = bestV > 0
			}
			witness = pos
		}
		// Stopping rule 1: beyond the current Δ, every ratio is at most
		// U_HI + B/Δ, so once best reaches that envelope no later
		// event can improve it. (Equivalent to Δ ≥ B/(best − U_HI),
		// but stated without dividing by a potentially tiny
		// difference, which keeps the int64 rationals in range.)
		// The inequality is screened in float64 first — inputs are ≤ 2^40
		// so the relative error is < 1e-14, and the certMargin slack makes
		// a definite float "no" exact — and only near-misses pay the exact
		// rational comparison, which still decides. The rule fires at most
		// once per walk, so the exact path is off the per-event budget.
		rhsF := uHiF + icptF/float64(pos)
		if bestF+certMargin*(bestF+rhsF) >= rhsF {
			if best := rat.New(int64(bestV), int64(bestP)); best.Cmp(uHi.Add(rat.New(int64(icpt), int64(pos)))) >= 0 {
				return SpeedupResult{
					Speedup: best, LowerBound: best, Exact: true,
					WitnessDelta: witness, Events: events + 1, Jumps: jumps,
				}, nil
			}
		}
		// Stopping rule 2: one full hyperperiod walked; the supremum is
		// max(best, U_HI) exactly.
		if hyperOK && pos >= hyper {
			best := rat.New(int64(bestV), int64(bestP))
			var res SpeedupResult
			switch {
			case best.Cmp(uHi) >= 0:
				res = SpeedupResult{Speedup: best, LowerBound: best, Exact: true, WitnessDelta: witness}
			case uLo.Eq(uHi):
				// The supremum is attained only in the limit.
				res = SpeedupResult{Speedup: uHi, LowerBound: uHi, Exact: true}
			default:
				// U_HI itself is only known to 2^-20; report the bracket.
				res = SpeedupResult{Speedup: uHi, LowerBound: rat.Max(best, uLo)}
			}
			res.Events, res.Jumps = events+1, jumps
			return res, nil
		}
		// Incumbent bulk skip: probe b beyond the next event and certify
		// the whole run (pos, b] irrelevant with a single O(n)
		// evaluation (see the function comment for the proof). The probe
		// distance adapts geometrically — doubling after a successful
		// certificate, halving after a failed one — so the walk pays at
		// most one extra evaluation per examined event yet can clear
		// arbitrarily long uneventful stretches in O(1) evaluations.
		if pos >= skipHorizon || !cutPositive {
			continue
		}
		next, ok := w.PeekNext()
		if !ok {
			continue
		}
		b := pos + chunk
		if b <= next {
			b = next + 1
		}
		if hyperOK && b > hyper-1 {
			b = hyper - 1
		}
		if b > skipHorizon {
			b = skipHorizon
		}
		if b <= next {
			continue
		}
		// O(1) screen: the curve is linear on [pos, next), jumps only
		// upward at next and is non-decreasing after it, so every b > next
		// has value(b) ≥ value(next) ≥ v + slope·(next − pos), the left
		// limit at next. A left limit whose ratio to pos already exceeds
		// the cutoff fails the certificate value(b) ≤ cutoff·pos without
		// the O(n) evaluation (one 128-bit cross multiplication, no
		// division), and the chunk halves exactly as a failed evaluation
		// halves it, so the walk takes the same steps.
		if ratioGreater(v+w.Slope()*(next-pos), pos, cutV, cutP) {
			chunk /= 2
			continue
		}
		// value(b) ≤ cutoff·pos, exactly, as an integer comparison
		// against thr = floor(cutV·pos/cutP): value(b) is an integer, so
		// the two predicates coincide. The capped evaluation exits the
		// column pass the moment the running sum exceeds thr, which is
		// where the probes the screen lets through stop paying for the
		// whole set.
		if _, certified := plan.ValueCapped(b, floorMulDiv(cutV, pos, cutP)); certified {
			w.SkipTo(b)
			jumps++
			chunk = (b - pos) * 2
		} else {
			chunk /= 2
		}
	}
	// Inexact: report the safe envelope.
	best := rat.New(int64(bestV), int64(bestP))
	envelope := uHi.Add(rat.New(int64(icpt), int64(pos)))
	return SpeedupResult{
		Speedup:      rat.Max(best, envelope),
		LowerBound:   rat.Max(best, uLo),
		Exact:        false,
		WitnessDelta: witness,
		Events:       events,
		Jumps:        jumps,
	}, nil
}

// floorMulDiv returns floor(a·b/d) for non-negative a, b and positive d,
// saturating at the int64 maximum. The skip certificate uses it to turn
// the rational predicate value(b)/pos ≤ cutoff into a single integer
// threshold; saturation is sound there because demand values always fit
// in int64, so a saturated threshold certifies trivially — exactly as the
// exact rational comparison would.
func floorMulDiv(a, b, d task.Time) task.Time {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(d) {
		return task.Time(math.MaxInt64)
	}
	quo, _ := bits.Div64(hi, lo, uint64(d))
	if quo > uint64(math.MaxInt64) {
		return task.Time(math.MaxInt64)
	}
	return task.Time(quo)
}

// skipHorizon caps how far the bulk skips may carry any pruned walk. It
// matches hiHyperperiod's walking horizon, keeping positions (and hence
// the int64 rationals built from them) in the same range the event-by-
// event walks already inhabit.
const skipHorizon = task.Time(1) << 40

// certMargin is the relative slack of stopping rule 1's float64 screen.
// The inequality is evaluated in float64 (a handful of ops on inputs
// ≤ 2^40, so the accumulated relative error is < 10^-14) and counts as a
// definite "no" only when it fails by this much room — five orders of
// magnitude beyond the worst-case float error, so a float "no" implies
// the exact one. Near-misses go to the exact rational comparison, which
// always decides.
const certMargin = 1e-9

// seedBound returns a proven lower bound on the Theorem-2 supremum used
// to prime the pruned walk's skip cutoff before the running maximum has
// caught up: the largest demand/length ratio over a handful of probe
// points — the caller's WarmWitness plus, when the hyperperiod is known,
// seven evenly spaced interior points. Soundness: the ratio at any single
// Δ > 0 never exceeds the supremum. Witness safety needs one refinement
// when the hyperperiod walk (stopping rule 2) applies: the supremum over
// (0, hyper] is attained at an event (the ratio is monotone between
// events), so any probe strictly inside (0, hyper) is bounded by the
// maximum event ratio the walk itself will record — whereas a probe at or
// beyond the hyperperiod could exceed it (the tail ratios climb toward
// U_HI, which rule 2 accounts for separately). Probes are therefore
// discarded there, so the seeded cutoff can never certify away the event
// that attains the walk's maximum.
// The probes are batched through the plan's BulkEval (one column-major
// pass over the compiled DBF_HI columns).
func seedBound(plan *dbf.Plan, warm task.Time, hyper task.Time, hyperOK bool) rat.Rat {
	var probes, vals [8]task.Time
	n := 0
	consider := func(p task.Time) {
		if p <= 0 || p > skipHorizon {
			return
		}
		if hyperOK && p >= hyper {
			return
		}
		probes[n] = p
		n++
	}
	consider(warm)
	if hyperOK {
		for j := task.Time(1); j < 8; j++ {
			consider(j * hyper / 8)
		}
	}
	if n == 0 {
		return rat.Zero
	}
	plan.BulkEval(vals[:n], probes[:n])
	// Track the maximum as a raw ratio (one 128-bit cross comparison per
	// probe) and normalize once at the end: rat.New's gcd is the only
	// expensive step, and the maximum is the same rational either way.
	bv, bp := task.Time(0), task.Time(1)
	for j := 0; j < n; j++ {
		if ratioGreater(vals[j], probes[j], bv, bp) {
			bv, bp = vals[j], probes[j]
		}
	}
	return rat.New(int64(bv), int64(bp))
}

// ratioGreater reports a/b > x/y for non-negative a, x and positive b, y
// via 128-bit cross multiplication (positions and values fit in 2^40·2^40
// products, beyond int64).
func ratioGreater(a, b, x, y task.Time) bool {
	hi1, lo1 := bits.Mul64(uint64(a), uint64(y))
	hi2, lo2 := bits.Mul64(uint64(x), uint64(b))
	return hi1 > hi2 || (hi1 == hi2 && lo1 > lo2)
}

func gcdTime(a, b task.Time) task.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SchedulableHI reports whether the set is HI-mode schedulable under EDF
// when the processor runs at the given speed factor in HI mode, i.e.
// whether Σ_i DBF_HI(τ_i, Δ) ≤ speed·Δ for all Δ ≥ 0. When the Theorem-2
// walk is inexact and speed falls inside the bracket [LowerBound,
// Speedup], the answer is conservatively false (and the error is nil: the
// set may or may not be schedulable, and a safety-oriented test must
// reject).
func SchedulableHI(s task.Set, speed rat.Rat) (bool, error) {
	res, err := MinSpeedup(s)
	if err != nil {
		return false, err
	}
	return speed.Cmp(res.Speedup) >= 0, nil
}

func validateSpeed(speed rat.Rat) error {
	if speed.Sign() <= 0 || speed.IsInf() {
		return fmt.Errorf("core: speed factor must be positive and finite, got %v", speed)
	}
	return nil
}
