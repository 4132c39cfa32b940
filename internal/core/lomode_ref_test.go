package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// refSchedulableLO is SchedulableLO as it was before the fixed-width
// sums: U(LO) and the horizon numerator re-summed in big.Rat on every
// call. It is the reference of the differential tests below.
func refSchedulableLO(s task.Set) bool {
	if s.Validate() != nil {
		return false
	}
	one := big.NewRat(1, 1)
	u := new(big.Rat)
	for i := range s {
		u.Add(u, big.NewRat(int64(s[i].WCET[task.LO]), int64(s[i].Period[task.LO])))
	}
	switch u.Cmp(one) {
	case 1:
		return false
	case 0:
		for i := range s {
			if s[i].Deadline[task.LO] != s[i].Period[task.LO] {
				return false
			}
		}
		return true
	}
	return qpaLO(s, refLOHorizon(s, u))
}

// refLOHorizon is the big.Rat horizon max(max D, ⌈Σ(T−D)·C/T / (1−U)⌉).
func refLOHorizon(s task.Set, u *big.Rat) int64 {
	sum := new(big.Rat)
	for i := range s {
		ti, di := s[i].Period[task.LO], s[i].Deadline[task.LO]
		sum.Add(sum, new(big.Rat).Mul(
			big.NewRat(int64(ti-di), 1),
			big.NewRat(int64(s[i].WCET[task.LO]), int64(ti))))
	}
	limit := ceilBig(new(big.Rat).Quo(sum, new(big.Rat).Sub(big.NewRat(1, 1), u)))
	for i := range s {
		if d := int64(s[i].Deadline[task.LO]); d > limit {
			limit = d
		}
	}
	return limit
}

// refMinimalX is MinimalX as it was before U(LO) was hoisted out of the
// search: every probe shortens a fresh copy and runs refSchedulableLO.
func refMinimalX(s task.Set) (rat.Rat, task.Set, error) {
	if err := s.Validate(); err != nil {
		return rat.Rat{}, nil, err
	}
	if len(s.ByCrit(task.HI)) == 0 {
		if !refSchedulableLO(s) {
			return rat.Rat{}, nil, fmt.Errorf("not LO-mode schedulable")
		}
		return rat.One, s.Clone(), nil
	}
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}
	feasible := func(k int64) (bool, task.Set) {
		out, err := s.ShortenHIDeadlines(rat.New(k, int64(dMax)))
		if err != nil {
			return false, nil
		}
		return refSchedulableLO(out), out
	}
	hi := int64(dMax) - 1
	okHi, best := feasible(hi)
	if !okHi {
		return rat.Rat{}, nil, fmt.Errorf("no x")
	}
	lo := int64(0)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ok, out := feasible(mid); ok {
			hi, best = mid, out
		} else {
			lo = mid
		}
	}
	return rat.New(hi, int64(dMax)), best, nil
}

// minimalXCorpus is the differential corpus: the sweep's generator sets
// (γ ∈ [1, 3] and γ = 10, LO tasks degraded by y = 2 or terminated),
// whose exact sums overflow fixed width for a good share of sets, plus
// small random sets with arbitrary constrained deadlines.
func minimalXCorpus(t *testing.T) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(611))
	var out []task.Set
	for i := 0; i < 240; i++ {
		p := gen.Defaults()
		if i%2 == 1 {
			p.GammaMin, p.GammaMax = 10, 10
		}
		s := p.MustSet(rnd, 0.3+0.65*rnd.Float64())
		if i%3 == 0 {
			s = s.TerminateLO()
		} else {
			var err error
			if s, err = s.DegradeLO(rat.Two); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, s)
	}
	for i := 0; i < 400; i++ {
		out = append(out, randomSet(rnd, 1+rnd.Intn(6), 60))
	}
	return out
}

// TestMinimalXMatchesReference: MinimalX must return the same x, the same
// prepared set and the same error-ness as the re-summing reference.
func TestMinimalXMatchesReference(t *testing.T) {
	wide, ok := 0, 0
	for si, s := range minimalXCorpus(t) {
		if _, fixed := s.UtilSum(task.LO).Rat(); !fixed {
			wide++
		}
		x, got, err := MinimalX(s)
		wx, want, werr := refMinimalX(s)
		if (err == nil) != (werr == nil) {
			t.Fatalf("set %d: MinimalX err %v, reference err %v\n%s", si, err, werr, s.Table())
		}
		if err != nil {
			continue
		}
		ok++
		if x != wx || got.Fingerprint() != want.Fingerprint() || got.Table() != want.Table() {
			t.Fatalf("set %d: MinimalX = %v, reference = %v\n%s\nvs\n%s", si, x, wx, got.Table(), want.Table())
		}
	}
	if wide == 0 || ok == 0 {
		t.Fatalf("degenerate corpus: %d sets beyond fixed width, %d with an x", wide, ok)
	}
}

// figSets are Fig. 6/7-shaped generator sets: γ ∈ [1, 3] and γ = 10, U
// from 0.4 to 0.9, with LO tasks degraded by y = 2 (Fig. 6) or
// terminated (Fig. 7).
func figSets(t *testing.T) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(2111))
	var sets []task.Set
	for _, gamma := range [][2]float64{{1, 3}, {10, 10}} {
		p := gen.Defaults()
		p.GammaMin, p.GammaMax = gamma[0], gamma[1]
		for u := 0.4; u < 0.95; u += 0.1 {
			for rep := 0; rep < 4; rep++ {
				s := p.MustSet(rnd, u)
				degraded, err := s.DegradeLO(rat.Two)
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, degraded, s.TerminateLO())
			}
		}
	}
	return sets
}

// TestMinimalXProbeHorizonsMatchExactFolds: MinimalX, whose probes take
// their own bracketed QPA horizon (rat.HorizonBound), must return the x,
// set bytes and error of referenceMinimalX, whose probes take their own
// exact-fold horizon.
func TestMinimalXProbeHorizonsMatchExactFolds(t *testing.T) {
	sets := append(genSets(t, 40), prunedSets(t, 20)...)
	sets = append(sets, figSets(t)...)
	ok := 0
	for i, s := range sets {
		x, got, err := MinimalX(s)
		wx, want, werr := referenceMinimalX(s)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("set %d: MinimalX err %v, reference err %v\n%s", i, err, werr, s.Table())
		}
		if err != nil {
			continue
		}
		ok++
		if !x.Eq(wx) || renderSet(got) != renderSet(want) {
			t.Fatalf("set %d: MinimalX = %v, reference = %v\n%s\nvs\n%s", i, x, wx, renderSet(got), renderSet(want))
		}
	}
	if ok == 0 {
		t.Fatal("degenerate corpus: no set has an x")
	}
}

// TestSchedulableLOMatchesReference checks the verdict on the corpus at
// random uniform deadline shortenings.
func TestSchedulableLOMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(612))
	yes, no := 0, 0
	for si, base := range minimalXCorpus(t) {
		for _, x := range []rat.Rat{rat.New(rnd.Int63n(90)+5, 100), rat.New(99, 100)} {
			s, err := base.ShortenHIDeadlines(x)
			if err != nil {
				continue
			}
			got, err := SchedulableLO(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := refSchedulableLO(s); got != want {
				t.Fatalf("set %d at x = %v: SchedulableLO = %v, reference = %v\n%s", si, x, got, want, s.Table())
			}
			if got {
				yes++
			} else {
				no++
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate corpus: %d schedulable, %d not", yes, no)
	}
}

// TestLOSumsBeyondFixedWidth drives dbf.LODemandSum's big.Rat term branch and
// loHorizon's big.Rat quotient: with periods near 10^10 ticks and
// C ≈ 0.45·T ≈ D, a single (T−D)·C/T term overflows int64/int64, and the
// sums, horizons and verdicts must still match the reference.
func TestLOSumsBeyondFixedWidth(t *testing.T) {
	rnd := rand.New(rand.NewSource(613))
	wide := 0
	for i := 0; i < 200; i++ {
		period := task.Time(8e9 + rnd.Int63n(2e9))
		c := period*2/5 + task.Time(rnd.Int63n(int64(period)/10))
		s := task.Set{task.NewLO("w", period, c+task.Time(rnd.Int63n(int64(period)/20)), c)}
		for j := 0; j < rnd.Intn(3); j++ {
			period := task.Time(1e3 + rnd.Int63n(1e10))
			c := 1 + task.Time(rnd.Int63n(int64(period)/8))
			s = append(s, task.NewLO(fmt.Sprintf("t%d", j), period, c+task.Time(rnd.Int63n(int64(period-c))), c))
		}
		ti, di := s[0].Period[task.LO], s[0].Deadline[task.LO]
		if _, ok := rat.New(int64(s[0].WCET[task.LO]), int64(ti)).MulChecked(rat.FromInt64(int64(ti - di))); !ok {
			wide++
		}
		sum := dbf.LODemandSum(s)
		want := new(big.Rat)
		for k := range s {
			ti, di := s[k].Period[task.LO], s[k].Deadline[task.LO]
			want.Add(want, new(big.Rat).Mul(big.NewRat(int64(ti-di), 1), big.NewRat(int64(s[k].WCET[task.LO]), int64(ti))))
		}
		if sum.Big().Cmp(want) != 0 {
			t.Fatalf("LODemandSum = %v, want %v", sum.Big(), want)
		}
		u := s.UtilSum(task.LO)
		if u.Cmp(rat.One) < 0 {
			if got, ref := loHorizon(s, sum, u), refLOHorizon(s, u.Big()); got != ref {
				t.Fatalf("loHorizon = %d, reference %d\n%s", got, ref, s.Table())
			}
		}
		if got, _ := SchedulableLO(s); got != refSchedulableLO(s) {
			t.Fatalf("SchedulableLO = %v, reference disagrees\n%s", got, s.Table())
		}
	}
	if wide == 0 {
		t.Fatal("no term overflowed fixed width")
	}
}

// TestLOModeCoprimeSet runs the LO-mode test and MinimalX on the
// 2000-task coprime-period set, whose exact sums all go to big.Rat, where
// the brackets decide U(LO) and bound the horizon. Every verdict must
// equal the exact-fold verdict (schedulableLOWithSums over exact sums),
// and MinimalX's x must be the smallest grid point that verdict accepts.
func TestLOModeCoprimeSet(t *testing.T) {
	s := coprimeSet(2000)
	exactLO := func(s task.Set) bool {
		return schedulableLOWithSums(s, rat.BigSum(exactUtil(s, task.LO)), rat.BigSum(exactLODemand(s)))
	}
	if u := exactUtil(s, task.LO); u.Denom().IsInt64() {
		t.Fatalf("U(LO) = %v fits fixed width", u)
	}
	x, got, err := MinimalX(s)
	if err != nil {
		t.Fatal(err)
	}
	dMax := hiDeadlineMax(s)
	k, ok := gridIndex(x, dMax)
	if !ok {
		t.Fatalf("x = %v is off the k/%d grid", x, dMax)
	}
	if !exactLO(got) {
		t.Fatalf("MinimalX's set at x = %v fails the exact test", x)
	}
	if below, err := s.ShortenHIDeadlines(rat.New(k-1, int64(dMax))); err == nil && exactLO(below) {
		t.Fatalf("x = %v is not minimal: %d/%d passes the exact test", x, k-1, dMax)
	}
	rnd := rand.New(rand.NewSource(614))
	yes, no := 0, 0
	for i := 0; i < 6; i++ {
		prepared, err := s.ShortenHIDeadlines(rat.New(1+rnd.Int63n(int64(dMax)-1), int64(dMax)))
		if err != nil {
			continue
		}
		got, err := SchedulableLO(prepared)
		if err != nil {
			t.Fatal(err)
		}
		if want := exactLO(prepared); got != want {
			t.Fatalf("SchedulableLO = %v, exact folds say %v", got, want)
		}
		if got {
			yes++
		} else {
			no++
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate shortenings: %d schedulable, %d not", yes, no)
	}
}
