package rat

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// bracketRef is a Bracket with its exact big.Rat sum alongside.
type bracketRef struct {
	b   Bracket
	ref *big.Rat
}

func (r *bracketRef) plusMulDiv(a, c, den int64) {
	r.b = r.b.PlusMulDiv(a, c, den)
	r.ref.Add(r.ref, new(big.Rat).Mul(big.NewRat(a, 1), big.NewRat(c, den)))
}

// check compares every decided answer of the bracket with the exact sum
// and returns whether the rounding was decided. Each query must decide
// whenever the bracket has no inexact term.
func (r *bracketRef) check(t *testing.T, probes ...Rat) bool {
	t.Helper()
	exactSum := r.b.k == 0 && !r.b.bad && r.b.hi < bracketMaxInt
	decided := false
	for _, up := range []bool{false, true} {
		got, ok := r.b.Round(up)
		if !ok {
			if exactSum {
				t.Fatalf("Round(%v) undecided on the exact sum %v", up, r.ref.RatString())
			}
			continue
		}
		decided = true
		if want := FromBig(r.ref, up); got != want {
			t.Fatalf("Round(%v) = %v, FromBig of %v says %v", up, got, r.ref.RatString(), want)
		}
	}
	if lo, hi, ok := r.b.Bounds(); ok != decided {
		t.Fatalf("Bounds decided %v, Round decided %v", ok, decided)
	} else if ok && (lo != FromBig(r.ref, false) || hi != FromBig(r.ref, true)) {
		t.Fatalf("Bounds = %v, %v on %v", lo, hi, r.ref.RatString())
	}
	for _, p := range probes {
		c, ok := r.b.Cmp(p)
		if !ok {
			if exactSum {
				t.Fatalf("Cmp(%v) undecided on the exact sum %v", p, r.ref.RatString())
			}
			continue
		}
		if want := r.ref.Cmp(p.Big()); c != want {
			t.Fatalf("Cmp(%v) = %d, big.Rat says %d for %v", p, c, want, r.ref.RatString())
		}
	}
	return decided
}

// checkHorizon asserts that HorizonBound(d, u), when given, is at least
// the exact ⌈D/(1−U)⌉, and that it is given whenever U's bracket lies
// clearly below 1.
func checkHorizon(t *testing.T, d, u *bracketRef) {
	t.Helper()
	h, ok := HorizonBound(d.b, u.b)
	oneMinusU := new(big.Rat).Sub(big.NewRat(1, 1), u.ref)
	if !ok {
		if !d.b.bad && !u.b.bad && oneMinusU.Cmp(big.NewRat(1, 1<<20)) > 0 &&
			new(big.Rat).Quo(d.ref, oneMinusU).Cmp(big.NewRat(1<<60, 1)) < 0 {
			t.Fatalf("HorizonBound undecided for D = %v, U = %v", d.ref.RatString(), u.ref.RatString())
		}
		return
	}
	if oneMinusU.Sign() <= 0 {
		t.Fatalf("HorizonBound = %d for U = %v ≥ 1", h, u.ref.RatString())
	}
	q := new(big.Rat).Quo(d.ref, oneMinusU)
	want := new(big.Int).Quo(q.Num(), q.Denom())
	if new(big.Int).Mul(want, q.Denom()).Cmp(q.Num()) != 0 {
		want.Add(want, big.NewInt(1))
	}
	if big.NewInt(h).Cmp(want) < 0 {
		t.Fatalf("HorizonBound = %d below the exact ⌈D/(1−U)⌉ = %v (D = %v, U = %v)",
			h, want, d.ref.RatString(), u.ref.RatString())
	}
}

func newRef() *bracketRef { return &bracketRef{ref: new(big.Rat)} }

// randomDen draws denominators from every range the bracket must handle:
// small ones (exact fractions of small denominator), powers of two
// (dyadic terms the bracket holds exactly), and sweep-sized to huge ones.
func randomDen(rnd *rand.Rand) int64 {
	switch rnd.Intn(5) {
	case 0:
		return 1 + rnd.Int63n(12)
	case 1:
		return int64(1) << rnd.Intn(40)
	case 2:
		return 1 + rnd.Int63n(1<<21)
	case 3:
		return 1e6 + rnd.Int63n(2e6)
	default:
		return 1 + rnd.Int63n(1<<50)
	}
}

// TestBracketRandomSums folds random utilization-shaped terms C/T ≤ 1 and
// larger slope-shaped ones (the Σσ_i of Lemma 6 exceeds 1) and product
// terms (T−D)·C/T, and checks every decided answer after every term.
func TestBracketRandomSums(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	decided, undecided := 0, 0
	for iter := 0; iter < 3000; iter++ {
		r := newRef()
		n := 1 + rnd.Intn(20)
		for i := 0; i < n; i++ {
			den := randomDen(rnd)
			switch iter % 3 {
			case 0:
				r.plusMulDiv(rnd.Int63n(den+1), 1, den)
			case 1:
				r.plusMulDiv(rnd.Int63n(4*den+1), 1, den)
			default:
				r.plusMulDiv(rnd.Int63n(den+1), rnd.Int63n(1<<20), den)
			}
			if r.check(t, One, Two, New(1, 3), New(int64(rnd.Intn(40)), 1+int64(rnd.Intn(12)))) {
				decided++
			} else {
				undecided++
			}
		}
	}
	if decided == 0 || undecided == 0 {
		t.Fatalf("degenerate corpus: %d decided, %d undecided roundings", decided, undecided)
	}
}

// TestBracketSmallFractionsInside pins the exactness rule on sums of a
// single inexact term, whose exact value always lies inside the bracket:
// a denominator up to 2^20 must leave the rounding undecided (FromBig
// returns the fraction itself), a larger one must round like FromBig.
func TestBracketSmallFractionsInside(t *testing.T) {
	for _, c := range []struct {
		num, den int64
		decided  bool
	}{
		{1, 3, false},
		{2, 3, false},
		{1, 7, false},
		{5, 1<<20 - 1, false},
		{999_999, 1<<20 - 3, false},
		{1, 1<<20 + 1, true},
		{123_457, 1<<20 + 7, true},
		{1, 1 << 19, true}, // dyadic: exact, on the grid
		{3, 1 << 30, true}, // dyadic: exact, off the grid
	} {
		r := newRef()
		r.plusMulDiv(c.num, 1, c.den)
		if got := r.check(t, One, New(c.num, c.den)); got != c.decided {
			t.Errorf("%d/%d: decided = %v, want %v", c.num, c.den, got, c.decided)
		}
	}
}

// cancellationSum adds pairs a/p and c/d − a/p = (c·p − a·d)/(d·p) with p a
// large odd prime-sized period and c/d a small fraction: every partial sum
// after the first few terms overflows int64/int64, yet the exact total
// Σc/d has a small denominator, so it lies inside the bracket.
func cancellationSum(rnd *rand.Rand, r *bracketRef, pairs int, d int64) {
	type pair struct{ a, p, c int64 }
	ps := make([]pair, pairs)
	for i := range ps {
		p := 1e9 + 2*rnd.Int63n(1e9) + 1
		c := 1 + rnd.Int63n(d)
		// a/p ≤ c/d, so the complement is non-negative.
		ps[i] = pair{a: rnd.Int63n(c*p/d + 1), p: p, c: c}
		r.plusMulDiv(ps[i].a, 1, p)
	}
	for _, x := range ps {
		r.plusMulDiv(x.c*x.p-x.a*d, 1, d*x.p)
	}
}

// TestBracketCancellation: sums whose partial sums overflow int64 but
// whose exact value has a denominator ≤ 2^20 — grid points, fractions of
// small denominator, sums above 1 and sums pressed against 1 — must
// never round from the bracket (FromBig returns them exactly), and every
// decided comparison must hold.
func TestBracketCancellation(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for iter := 0; iter < 2000; iter++ {
		d := []int64{3, 7, 12, 720720, 1 << 20, 1<<20 - 1}[iter%6]
		r := newRef()
		cancellationSum(rnd, r, 1+rnd.Intn(6), d)
		if r.ref.Denom().Cmp(big.NewInt(1<<20)) > 0 {
			t.Fatalf("corpus bug: exact sum %v has a large denominator", r.ref.RatString())
		}
		total := FromBig(r.ref, true)
		if r.check(t, One, total, total.Add(New(1, 1<<40)), Two) && r.b.k > 0 {
			t.Fatalf("rounding decided for the small-denominator sum %v", r.ref.RatString())
		}
	}
}

// TestBracketPressedAgainstOne compares sums 1 − e/P, 1 and 1 + e/P with
// 1, where P is a large odd period and every partial sum overflows
// int64: n−1 pairs a/p + (p − a·n)/(n·p) contribute (n−1)/n, and a last
// term (P ∓ n·e)/(n·P) the rest. Below 1 it also checks the horizon bound.
func TestBracketPressedAgainstOne(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	var below, above, horizons int
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rnd.Int63n(6)
		r := newRef()
		for i := int64(1); i < n; i++ {
			p := 1e9 + 2*rnd.Int63n(1e9) + 1
			a := rnd.Int63n(p / n)
			r.plusMulDiv(a, 1, p)
			r.plusMulDiv(p-a*n, 1, n*p)
		}
		bigP := 1e12 + 2*rnd.Int63n(1e12) + 1
		e := 1 + rnd.Int63n(1000)
		switch iter % 3 {
		case 0:
			r.plusMulDiv(bigP-n*e, 1, n*bigP)
		case 1:
			r.plusMulDiv(bigP, 1, n*bigP)
		default:
			r.plusMulDiv(bigP+n*e, 1, n*bigP)
		}
		r.check(t, One, New(bigP-1, bigP), New(bigP+1, bigP))
		c, ok := r.b.Cmp(One)
		switch {
		case ok && c < 0:
			below++
		case ok && c > 0:
			above++
		}
		if iter%3 == 0 {
			d := newRef()
			d.plusMulDiv(rnd.Int63n(1e6), rnd.Int63n(1e6), 1+rnd.Int63n(1e6))
			checkHorizon(t, d, r)
			if _, ok := HorizonBound(d.b, r.b); ok {
				horizons++
			}
		}
	}
	if below == 0 || above == 0 || horizons == 0 {
		t.Fatalf("degenerate corpus: %d decided below 1, %d above, %d horizons", below, above, horizons)
	}
}

// TestBracketHorizonBound checks the horizon bound against the exact
// ceiling on random sweep-sized sums, and that it tracks the exact value
// closely enough to be useful.
func TestBracketHorizonBound(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	given := 0
	for iter := 0; iter < 3000; iter++ {
		u, d := newRef(), newRef()
		for i := 0; i < 1+rnd.Intn(16); i++ {
			tp := 1 + rnd.Int63n(2e6)
			c := rnd.Int63n(tp/8 + 1)
			u.plusMulDiv(c, 1, tp)
			d.plusMulDiv(rnd.Int63n(tp+1), c, tp)
		}
		checkHorizon(t, d, u)
		if h, ok := HorizonBound(d.b, u.b); ok {
			given++
			q, _ := new(big.Rat).Quo(d.ref, new(big.Rat).Sub(big.NewRat(1, 1), u.ref)).Float64()
			if float64(h) > q*(1+1e-9)+2 {
				t.Fatalf("HorizonBound = %d, far above the exact quotient %v", h, q)
			}
		}
	}
	if given == 0 {
		t.Fatal("no horizon bound given")
	}
}

// TestBracketHorizonJustAboveInteger: D = (q+1)/q = 1 + 1/q with
// q ∈ (2^64/3, 2^63), split into three inexact terms, so the truncated
// sum V often sits at or below 1 while D is above it. The horizon bound
// must still reach ⌈D/(1−U)⌉, for U = 0 and for the exact U = 1/2.
func TestBracketHorizonJustAboveInteger(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	below := 0
	for iter := 0; iter < 400; iter++ {
		q := (1<<62 + rnd.Int63n(1<<62)) | 1
		a, b := 1+rnd.Int63n(q/2), 1+rnd.Int63n(q/2)
		d := newRef()
		d.plusMulDiv(a, 1, q)
		d.plusMulDiv(b, 1, q)
		d.plusMulDiv(q+1-a-b, 1, q)
		if d.b.hi == 0 || (d.b.hi == 1 && d.b.lo == 0) {
			below++
		}
		half := newRef()
		half.plusMulDiv(1, 1, 2)
		checkHorizon(t, d, newRef())
		checkHorizon(t, d, half)
	}
	if below == 0 {
		t.Fatal("degenerate corpus: no truncated sum at or below 1")
	}
}

// TestBracketUndecidedRanges: negative terms, integer parts beyond
// 64 bits and integer parts beyond the rounding grid leave every query
// undecided rather than wrong.
func TestBracketUndecidedRanges(t *testing.T) {
	var neg Bracket
	neg = neg.Plus(-1, 3)
	huge := Bracket{}.PlusMulDiv(1<<62, 1<<62, 3)
	wide := Bracket{}.Plus(1<<42, 1)
	for name, b := range map[string]Bracket{"negative": neg, "huge": huge, "beyond the grid": wide} {
		if _, ok := b.Round(true); ok {
			t.Errorf("%s: Round decided", name)
		}
		if name != "beyond the grid" {
			if _, ok := b.Cmp(One); ok {
				t.Errorf("%s: Cmp decided", name)
			}
			if _, ok := HorizonBound(b, Bracket{}); ok {
				t.Errorf("%s: HorizonBound decided", name)
			}
		}
	}
	if c, ok := wide.Cmp(One); !ok || c != 1 {
		t.Errorf("2^42 against 1: %d, %v", c, ok)
	}
	if _, ok := HorizonBound(Bracket{}, Bracket{}.Plus(1, 1)); ok {
		t.Error("HorizonBound decided for U = 1")
	}
}

// FuzzBracketRound folds up to 64 terms decoded from the input — an
// 8-byte numerator and an 8-byte denominator each, added below 1 to a
// utilization bracket and, scaled by a following 3-byte factor, to a
// horizon-numerator bracket — and checks every decided rounding and
// comparison, and the horizon bound, against the exact big.Rat sums.
func FuzzBracketRound(f *testing.F) {
	seed := func(terms ...int64) []byte {
		var out []byte
		for _, v := range terms {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		return out
	}
	f.Add(seed(1, 3, 1, 3, 1, 3))
	f.Add(seed(123457, 1000003, 7, 1048576))
	f.Add(seed(1, 1<<20+1, 999999, 1<<20-3))
	f.Add(seed(1000000006, 3000000021, 1, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, d := newRef(), newRef()
		// At most 64 terms: the exact reference's cost grows with the
		// square of the summed denominators' size.
		for n := 0; len(data) >= 16 && n < 64; n++ {
			num := int64(binary.LittleEndian.Uint64(data) >> 1)
			den := int64(binary.LittleEndian.Uint64(data[8:])>>1) | 1
			data = data[16:]
			if len(data) >= 3 {
				scale := int64(data[0]) | int64(data[1])<<8 | int64(data[2])<<16
				data = data[3:]
				d.plusMulDiv(num, scale, den)
			}
			u.plusMulDiv(num%den, 1, den) // keep U's terms below 1
			u.check(t, One, Two, New(1, 3))
		}
		d.check(t, One)
		checkHorizon(t, d, u)
	})
}
