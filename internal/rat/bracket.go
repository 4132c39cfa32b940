package rat

import (
	"math"
	"math/bits"
)

// Bracket encloses a sum S of non-negative rationals without allocating,
// for the folds whose exact value is read only through a rounding onto
// the 2^-20 grid or a comparison (utilizations, the LO-mode horizon
// numerator, the Lemma-6 slope sum). It keeps
//
//	V = Σ_i ⌊t_i·2^64⌋ / 2^64
//
// in 128-bit fixed point (64 integer and 64 fraction bits) together with
// the count k of inexact terms, those whose truncation dropped a nonzero
// remainder. Each dropped part lies in (0, 2^-64), so S = V when k = 0 and
// V < S < V + k·2^-64 otherwise.
//
// Every query answers only when the bracket decides it and reports
// ok = false otherwise; the caller then runs the exact fold (Sum), which
// stays the one fallback. A negative term, a non-positive denominator or
// an integer part beyond 64 bits makes every query undecided. The zero
// value is the empty sum, and Plus returns a new Bracket, like Sum.
type Bracket struct {
	hi, lo uint64 // V·2^64: the integer part in hi, the fraction in lo
	k      uint64 // inexact terms
	bad    bool   // a term the bracket cannot hold was added
}

// bracketMaxInexact bounds k for the rounding queries: with fewer than
// 2^23 inexact terms the width k·2^-64 stays below 2^-41, the distance
// Legendre's theorem needs for denominators up to 2^20 (see holdsGridFraction).
const bracketMaxInexact = 1 << 23

// bracketMaxInt bounds V's integer part for the rounding queries, so the
// grid numerator and its successor stay within FromBig's range.
const bracketMaxInt = 1 << 41

// Plus returns the bracket of S + num/den, for num ≥ 0 and den > 0.
func (b Bracket) Plus(num, den int64) Bracket { return b.PlusMulDiv(num, 1, den) }

// PlusRat returns the bracket of S + r, for finite r ≥ 0.
func (b Bracket) PlusRat(r Rat) Bracket {
	if r.den == 0 {
		b.bad = true
		return b
	}
	return b.PlusMulDiv(r.num, 1, r.den)
}

// PlusMulDiv returns the bracket of S + a·c/den, for a, c ≥ 0 and den > 0.
// The product is carried in 128 bits, so any int64 operands are held
// exactly up to the truncation of the quotient.
func (b Bracket) PlusMulDiv(a, c, den int64) Bracket {
	if a < 0 || c < 0 || den <= 0 {
		b.bad = true
		return b
	}
	ph, pl := bits.Mul64(uint64(a), uint64(c))
	d := uint64(den)
	if ph >= d {
		b.bad = true // the term's integer part does not fit 64 bits
		return b
	}
	q, r := bits.Div64(ph, pl, d)
	f, rem := bits.Div64(r, 0, d)
	var carry uint64
	b.lo, carry = bits.Add64(b.lo, f, 0)
	b.hi, carry = bits.Add64(b.hi, q, carry)
	if carry != 0 {
		b.bad = true
	}
	if rem != 0 {
		b.k++
	}
	return b
}

// Round returns FromBig(S, up) — S itself when its reduced denominator is
// at most 2^20, else S rounded onto the 2^-20 grid in the direction up
// asks for — when the bracket decides it.
func (b Bracket) Round(up bool) (Rat, bool) {
	n, exact, ok := b.grid()
	if !ok {
		return Rat{}, false
	}
	if up && !exact {
		n++
	}
	return gridRat(n), true
}

// Bounds returns Round(false) and Round(true) when the bracket decides
// them (it decides both or neither).
func (b Bracket) Bounds() (lo, hi Rat, ok bool) {
	n, exact, ok := b.grid()
	if !ok {
		return Rat{}, Rat{}, false
	}
	lo = gridRat(n)
	if exact {
		return lo, lo, true
	}
	return lo, gridRat(n + 1), true
}

// gridRat returns New(n, 2^20) for n ≥ 0, reduced by shifts: the gcd
// with a power of two is the power of n's trailing zeros.
func gridRat(n int64) Rat {
	if n == 0 {
		return Zero
	}
	tz := min(bits.TrailingZeros64(uint64(n)), 20)
	return Rat{n >> tz, roundDenom >> tz}
}

// grid returns n = ⌊S·2^20⌋ and whether S = n/2^20 exactly, when the
// bracket decides both. With k = 0, S = V is a dyadic rational, on the
// grid exactly when its fraction's low 44 bits are zero, and otherwise of
// reduced denominator above 2^20. With k > 0, when no fraction of
// denominator at most 2^20 — grid points included — lies in [V, V+k·2^-64],
// S is not such a fraction either, and no grid point separates S from V,
// so S rounds as V does: down to n/2^20 and up to (n+1)/2^20.
func (b Bracket) grid() (n int64, exact, ok bool) {
	if b.bad || b.hi >= bracketMaxInt {
		return 0, false, false
	}
	n = int64(b.hi<<20 | b.lo>>44)
	if b.k == 0 {
		return n, b.lo<<20 == 0, true
	}
	if b.k >= bracketMaxInexact || b.holdsGridFraction() {
		return 0, false, false
	}
	return n, false, true
}

// holdsGridFraction reports whether some p/q with 1 ≤ q ≤ 2^20 lies in
// [V, V + k·2^-64], for k below bracketMaxInexact. Such a p/q is within
// k·2^-64 < 2^-41 ≤ 1/(2q²) of V, so by Legendre's theorem it is a
// continued-fraction convergent of V. V is rational, with two expansions
// that differ only in their last partial quotient; the second one's extra
// convergent is the intermediate fraction (p_j−p_{j−1})/(q_j−q_{j−1}).
// Testing every convergent and every such intermediate fraction with a
// denominator up to 2^20 therefore finds any p/q there is. The integer
// part cancels: convergents of V are hi plus those of x = lo/2^64.
func (b Bracket) holdsGridFraction() bool {
	const qMax = uint64(roundDenom)
	if b.fracHolds(0, 1) {
		return true
	}
	if b.lo <= 1 {
		// x = 0, or x = 2^-64 = [0; 2^64]: no other convergent has a
		// denominator up to 2^20.
		return false
	}
	// Euclid on (2^64, lo): a1 = ⌊2^64/lo⌋, then on (lo, 2^64 mod lo).
	a, r := bits.Div64(1, 0, b.lo)
	num, den := b.lo, r
	pPrev, qPrev := uint64(1), uint64(0) // p_{-1}/q_{-1}
	p, q := uint64(0), uint64(1)         // p_0/q_0 = ⌊x⌋ = 0
	for {
		if a > qMax+1 {
			// Both the intermediate fraction ((a−1)p+pPrev)/((a−1)q+qPrev)
			// and the convergent have denominators above 2^20, and every
			// later denominator exceeds this one.
			return false
		}
		if a >= 2 {
			if iq := (a-1)*q + qPrev; iq <= qMax && b.fracHolds((a-1)*p+pPrev, iq) {
				return true
			}
		}
		nq := a*q + qPrev
		if nq > qMax {
			// Later intermediate fractions either repeat an earlier
			// convergent (partial quotient 1) or have denominators at
			// least nq.
			return false
		}
		np := a*p + pPrev
		if b.fracHolds(np, nq) {
			return true
		}
		if den == 0 {
			return false // x = np/nq: the expansion has ended
		}
		pPrev, qPrev, p, q = p, q, np, nq
		a, num, den = num/den, den, num%den
	}
}

// fracHolds reports whether p/q (q ≥ 1) lies in [x, x + k·2^-64] with
// x = lo/2^64: lo·q ≤ p·2^64 ≤ (lo + k)·q, in 128 bits.
func (b Bracket) fracHolds(p, q uint64) bool {
	h, l := bits.Mul64(b.lo, q)
	if h > p || (h == p && l != 0) {
		return false
	}
	kh, kl := bits.Mul64(b.k, q)
	_, carry := bits.Add64(l, kl, 0)
	return h+kh+carry >= p
}

// Cmp compares S with the finite r: -1, 0 or +1, when the bracket decides
// it. An empty bracket (k = 0) decides every comparison; otherwise any r
// outside [V, V + k·2^-64] is decided.
func (b Bracket) Cmp(r Rat) (int, bool) {
	if b.bad || r.den == 0 {
		return 0, false
	}
	if r.num < 0 {
		return 1, true // S ≥ 0
	}
	c := cmpFixed(b.hi, b.lo, r)
	if b.k == 0 {
		return c, true
	}
	if c >= 0 {
		return 1, true // S > V ≥ r
	}
	lo, carry := bits.Add64(b.lo, b.k, 0)
	hi, carry := bits.Add64(b.hi, 0, carry)
	if carry == 0 && cmpFixed(hi, lo, r) <= 0 {
		return -1, true // S < V + k·2^-64 ≤ r
	}
	return 0, false
}

// cmpFixed compares hi + lo/2^64 with the finite r ≥ 0.
func cmpFixed(hi, lo uint64, r Rat) int {
	ip, rp := uint64(r.num)/uint64(r.den), uint64(r.num)%uint64(r.den)
	if hi != ip {
		if hi < ip {
			return -1
		}
		return 1
	}
	// lo/2^64 against rp/den: lo·den against rp·2^64.
	h, l := bits.Mul64(lo, uint64(r.den))
	switch {
	case h < rp:
		return -1
	case h > rp || l != 0:
		return 1
	}
	return 0
}

// HorizonBound returns an upper bound on ⌈D/(1−U)⌉ for the sums D and U
// bracketed by d and u — the demand part of the LO-mode processor-demand
// horizon — when U's bracket lies below 1 and the bound fits int64:
// D < V_D + k_D·2^-64 and 1 − U > 1 − V_U − k_U·2^-64 > 0, so the quotient
// of those two ends, rounded up, is at least the exact ceiling.
func HorizonBound(d, u Bracket) (int64, bool) {
	if d.bad || u.bad || u.hi != 0 {
		return 0, false
	}
	us, carry := bits.Add64(u.lo, u.k, 0)
	if carry != 0 {
		return 0, false // U's upper end reaches 1
	}
	dl, carry := bits.Add64(d.lo, d.k, 0)
	dh, carry := bits.Add64(d.hi, 0, carry)
	if carry != 0 {
		return 0, false
	}
	var q, rem uint64
	if us == 0 {
		q, rem = dh, dl // U = 0 exactly: the quotient is D's upper end
	} else {
		m := -us // 2^64·(1 − U's upper end)
		if dh >= m {
			return 0, false // the quotient reaches 2^64
		}
		q, rem = bits.Div64(dh, dl, m)
	}
	if q >= math.MaxInt64 {
		return 0, false
	}
	if rem != 0 {
		q++
	}
	return int64(q), true
}
