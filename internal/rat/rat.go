// Package rat implements exact rational arithmetic on int64
// numerator/denominator pairs.
//
// The mixed-criticality analysis in this repository compares ratios of
// integer demand values to integer interval lengths (for example
// s_min = max DBF(Δ)/Δ in Theorem 2 of the paper). Floating-point
// comparison of such ratios can misorder nearly-equal candidates and, in
// the simulator, can manufacture spurious deadline misses. This package
// keeps every ratio exact: values are always stored in lowest terms with a
// positive denominator, comparisons use 128-bit intermediate products, and
// arithmetic reports overflow instead of silently wrapping.
//
// The zero value of Rat is not valid; use New, FromInt64 or one of the
// named constants. All operations on valid inputs produce valid outputs or
// panic with ErrOverflow (overflow is a programming/scale error in this
// code base, never a data-dependent condition the caller should handle).
package rat

import (
	"fmt"
	"math"
	"math/bits"
)

// Rat is an exact rational number num/den, always normalized so that
// den > 0 and gcd(|num|, den) == 1. Infinities are representable with
// den == 0: {+1, 0} is +Inf and {-1, 0} is -Inf; they arise naturally as
// "no finite resetting time" results. NaN is not representable.
type Rat struct {
	num int64
	den int64
}

// Handy constants.
var (
	Zero   = Rat{0, 1}
	One    = Rat{1, 1}
	Two    = Rat{2, 1}
	PosInf = Rat{1, 0}
	NegInf = Rat{-1, 0}
)

// ErrOverflow is the panic value raised when an exact result does not fit
// in int64/int64 form.
var ErrOverflow = fmt.Errorf("rat: int64 overflow in exact arithmetic")

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func absU(x int64) uint64 {
	if x < 0 {
		// Works for MinInt64 too: -(math.MinInt64) wraps, but the
		// unsigned conversion of the negation is correct.
		return uint64(-(x + 1)) + 1
	}
	return uint64(x)
}

func checkedNeg(x int64) int64 {
	if x == math.MinInt64 {
		panic(ErrOverflow)
	}
	return -x
}

// New returns the normalized rational num/den. den may be negative (the
// sign moves to the numerator) but must not be zero; use PosInf/NegInf for
// infinities.
func New(num, den int64) Rat {
	if den == 0 {
		panic(fmt.Errorf("rat: New with zero denominator (num=%d)", num))
	}
	if den < 0 {
		num, den = checkedNeg(num), checkedNeg(den)
	}
	if num == 0 {
		return Zero
	}
	g := gcd64(absU(num), uint64(den))
	if g > 1 {
		num /= int64(g) // exact: g divides both
		den /= int64(g)
	}
	return Rat{num, den}
}

// FromInt64 returns the rational n/1.
func FromInt64(n int64) Rat { return Rat{n, 1} }

// Num returns the normalized numerator.
func (r Rat) Num() int64 { return r.num }

// Den returns the normalized denominator (0 for infinities).
func (r Rat) Den() int64 { return r.den }

// IsInf reports whether r is +Inf or -Inf.
func (r Rat) IsInf() bool { return r.den == 0 }

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 && r.den != 0 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Float64 returns the nearest float64 to r. Infinities convert to IEEE
// infinities.
func (r Rat) Float64() float64 {
	if r.den == 0 {
		return math.Inf(int(r.num))
	}
	return float64(r.num) / float64(r.den)
}

// String renders r as "num/den", or as a plain integer when den == 1, or
// "+Inf"/"-Inf".
func (r Rat) String() string {
	switch {
	case r.den == 1:
		return fmt.Sprintf("%d", r.num)
	case r.den == 0 && r.num > 0:
		return "+Inf"
	case r.den == 0:
		return "-Inf"
	default:
		return fmt.Sprintf("%d/%d", r.num, r.den)
	}
}

// mul128 computes |a|*|b| as a 128-bit (hi, lo) pair plus the product sign.
func mul128(a, b int64) (hi, lo uint64, neg bool) {
	neg = (a < 0) != (b < 0)
	hi, lo = bits.Mul64(absU(a), absU(b))
	return hi, lo, neg && (hi != 0 || lo != 0)
}

// cmp128 compares two signed 128-bit magnitudes.
func cmp128(ah, al uint64, aneg bool, bh, bl uint64, bneg bool) int {
	if aneg != bneg {
		if aneg {
			return -1
		}
		return 1
	}
	var c int
	switch {
	case ah != bh:
		if ah < bh {
			c = -1
		} else {
			c = 1
		}
	case al != bl:
		if al < bl {
			c = -1
		} else {
			c = 1
		}
	}
	if aneg {
		return -c
	}
	return c
}

// Cmp compares r and s, returning -1 if r < s, 0 if r == s, +1 if r > s.
// Comparisons involving infinities follow the usual extended-real order;
// comparing +Inf with +Inf (or -Inf with -Inf) yields 0.
func (r Rat) Cmp(s Rat) int {
	if r.den == 0 || s.den == 0 {
		rs, ss := r.infClass(), s.infClass()
		switch {
		case rs < ss:
			return -1
		case rs > ss:
			return 1
		default:
			return 0
		}
	}
	// r.num/r.den ? s.num/s.den  <=>  r.num*s.den ? s.num*r.den
	// (both denominators positive).
	ah, al, aneg := mul128(r.num, s.den)
	bh, bl, bneg := mul128(s.num, r.den)
	return cmp128(ah, al, aneg, bh, bl, bneg)
}

// infClass maps r to -1 / 0 / +1 for (-Inf, finite, +Inf), used to order
// infinities against finite values. Finite values compare by sign against
// infinities only, so mapping all finite values to 0 is sufficient.
func (r Rat) infClass() int {
	if r.den != 0 {
		return 0
	}
	return r.Sign()
}

// CmpRatio compares r with the ratio num/den without materializing (or
// normalizing) the right-hand side: -1 if r < num/den, 0 if equal, +1 if
// r > num/den. den must be positive; num may be any int64. Infinite r
// compares as in Cmp. This is the demand walks' per-event comparison
// primitive — value/position ratios are compared against an incumbent
// without paying New's gcd normalization, with the cross products carried
// in 128 bits so no input can overflow.
func (r Rat) CmpRatio(num, den int64) int {
	if den <= 0 {
		panic(fmt.Errorf("rat: CmpRatio with non-positive denominator %d", den))
	}
	if r.den == 0 {
		return r.Sign()
	}
	ah, al, aneg := mul128(r.num, den)
	bh, bl, bneg := mul128(num, r.den)
	return cmp128(ah, al, aneg, bh, bl, bneg)
}

// FloorDiv returns floor(v / r) for non-negative v and positive finite r.
// The intermediate v·den product is carried in 128 bits, so the result is
// exact for any int64 inputs (saturating at MaxInt64 when the quotient
// exceeds it). It backs the reset walk's QPA fast-forward, which needs
// floor(value/speed) per iteration without Div's gcd reductions.
func FloorDiv(v int64, r Rat) int64 {
	if r.num <= 0 || r.den == 0 || v < 0 {
		panic(fmt.Errorf("rat: FloorDiv(%d, %v) out of domain", v, r))
	}
	hi, lo := bits.Mul64(uint64(v), uint64(r.den))
	num := uint64(r.num)
	if hi >= num {
		return math.MaxInt64 // quotient ≥ 2^64
	}
	quo, _ := bits.Div64(hi, lo, num)
	if quo > uint64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(quo)
}

// Less reports r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Eq reports r == s.
func (r Rat) Eq(s Rat) bool { return r.Cmp(s) == 0 }

// tryAdd64 and tryMul64 are the non-panicking primitives under
// addChecked/mulChecked and AddChecked.
func tryAdd64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func tryMul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	hi, lo := bits.Mul64(absU(a), absU(b))
	neg := (a < 0) != (b < 0)
	if hi != 0 {
		return 0, false
	}
	if neg {
		if lo > uint64(math.MaxInt64)+1 {
			return 0, false
		}
		if lo == uint64(math.MaxInt64)+1 {
			return math.MinInt64, true
		}
		return -int64(lo), true
	}
	if lo > uint64(math.MaxInt64) {
		return 0, false
	}
	return int64(lo), true
}

func addChecked(a, b int64) int64 {
	s, ok := tryAdd64(a, b)
	if !ok {
		panic(ErrOverflow)
	}
	return s
}

func mulChecked(a, b int64) int64 {
	p, ok := tryMul64(a, b)
	if !ok {
		panic(ErrOverflow)
	}
	return p
}

// Add returns r + s exactly.
func (r Rat) Add(s Rat) Rat {
	if r.den == 0 || s.den == 0 {
		return addInf(r, s)
	}
	// Reduce the denominators by their gcd before cross-multiplying to
	// delay overflow (standard technique from Knuth TAOCP 4.5.1).
	g := int64(gcd64(uint64(r.den), uint64(s.den)))
	rd := r.den / g
	sd := s.den / g
	num := addChecked(mulChecked(r.num, sd), mulChecked(s.num, rd))
	den := mulChecked(rd, s.den)
	return New(num, den)
}

func addInf(r, s Rat) Rat {
	rc, sc := r.infClass(), s.infClass()
	switch {
	case rc != 0 && sc != 0:
		if rc != sc {
			panic(fmt.Errorf("rat: Inf + -Inf is undefined"))
		}
		return r
	case rc != 0:
		return r
	default:
		return s
	}
}

// AddChecked returns r + s and true when the exact sum is representable,
// and Zero and false otherwise — the allocation-free accumulation
// primitive for callers that keep a big.Rat fallback (e.g. utilization
// sums over many coprime periods) and must not pay Add's panic/recover
// on the hot path. Inf + -Inf also reports false.
func (r Rat) AddChecked(s Rat) (Rat, bool) {
	if r.den == 0 || s.den == 0 {
		rc, sc := r.infClass(), s.infClass()
		if rc != 0 && sc != 0 && rc != sc {
			return Zero, false
		}
		return addInf(r, s), true
	}
	g := int64(gcd64(uint64(r.den), uint64(s.den)))
	rd := r.den / g
	sd := s.den / g
	a, ok1 := tryMul64(r.num, sd)
	b, ok2 := tryMul64(s.num, rd)
	if !ok1 || !ok2 {
		return Zero, false
	}
	num, ok3 := tryAdd64(a, b)
	den, ok4 := tryMul64(rd, s.den)
	if !ok3 || !ok4 {
		return Zero, false
	}
	return New(num, den), true
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	return Rat{checkedNeg(r.num), r.den}
}

// Sub returns r - s exactly.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Mul returns r * s exactly.
func (r Rat) Mul(s Rat) Rat {
	if r.den == 0 || s.den == 0 {
		sign := r.Sign() * s.Sign()
		switch sign {
		case 1:
			return PosInf
		case -1:
			return NegInf
		default:
			panic(fmt.Errorf("rat: 0 * Inf is undefined"))
		}
	}
	// Cross-reduce before multiplying to delay overflow.
	g1 := int64(gcd64(absU(r.num), uint64(s.den)))
	g2 := int64(gcd64(absU(s.num), uint64(r.den)))
	num := mulChecked(r.num/g1, s.num/g2)
	den := mulChecked(r.den/g2, s.den/g1)
	return New(num, den)
}

// MulChecked returns r * s and true when both are finite and the exact
// product is representable, and Zero and false otherwise — Mul's
// non-panicking counterpart for callers with a big.Rat fallback.
func (r Rat) MulChecked(s Rat) (Rat, bool) {
	if r.den == 0 || s.den == 0 {
		return Zero, false
	}
	g1 := int64(gcd64(absU(r.num), uint64(s.den)))
	g2 := int64(gcd64(absU(s.num), uint64(r.den)))
	num, ok1 := tryMul64(r.num/g1, s.num/g2)
	den, ok2 := tryMul64(r.den/g2, s.den/g1)
	if !ok1 || !ok2 {
		return Zero, false
	}
	return New(num, den), true
}

// Inv returns 1/r. Inv of ±Inf is 0; Inv of 0 is +Inf (the analysis only
// ever inverts non-negative quantities, and 1/0 = +Inf matches the paper's
// convention that zero-length intervals with positive demand force
// infinite speedup).
func (r Rat) Inv() Rat {
	switch {
	case r.den == 0:
		return Zero
	case r.num == 0:
		return PosInf
	case r.num < 0:
		return Rat{checkedNeg(r.den), checkedNeg(r.num)}
	default:
		return Rat{r.den, r.num}
	}
}

// Div returns r / s exactly, with r/0 = ±Inf by sign of r (0/0 panics).
func (r Rat) Div(s Rat) Rat { return r.Mul(s.Inv()) }

// MulInt returns r * n exactly.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt64(n)) }

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Floor returns the largest integer <= r. Panics on infinities.
func (r Rat) Floor() int64 {
	if r.den == 0 {
		panic(fmt.Errorf("rat: Floor of %v", r))
	}
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// MaxIntBelowRatio returns the largest integer n in [0, limit] such that
// n·r < v. r must be positive and finite, v positive, and limit
// nonnegative; the intermediate v·den product is carried in 128 bits
// (math/bits), so the computation cannot overflow for any int64 inputs.
// It backs the demand walks' incumbent skip certificates: n is the
// furthest integer position whose supply line n·r provably stays below a
// demand value v already reached.
func MaxIntBelowRatio(v int64, r Rat, limit int64) int64 {
	if r.num <= 0 || r.den == 0 || v <= 0 || limit < 0 {
		panic(fmt.Errorf("rat: MaxIntBelowRatio(%d, %v, %d) out of domain", v, r, limit))
	}
	// n·num/den < v  ⇔  n < v·den/num, so n is the largest integer
	// strictly below the 128-bit quotient.
	hi, lo := bits.Mul64(uint64(v), uint64(r.den))
	num := uint64(r.num)
	if hi >= num {
		// Quotient ≥ 2^64: every representable n qualifies.
		return limit
	}
	quo, rem := bits.Div64(hi, lo, num)
	n := quo
	if rem == 0 {
		n = quo - 1 // v·den/num is an integer; strictly below means one less
	}
	if n > uint64(limit) {
		return limit
	}
	return int64(n)
}

// Ceil returns the smallest integer >= r. Panics on infinities.
func (r Rat) Ceil() int64 {
	if r.den == 0 {
		panic(fmt.Errorf("rat: Ceil of %v", r))
	}
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// FromFloat converts a float64 to the nearest rational with denominator at
// most maxDen (continued-fraction / Stern-Brocot mediant search). It is
// used only at configuration boundaries (e.g. a user-supplied speedup of
// 1.4): all analysis-internal values are born rational.
func FromFloat(f float64, maxDen int64) Rat {
	if maxDen < 1 {
		panic(fmt.Errorf("rat: FromFloat maxDen %d < 1", maxDen))
	}
	if math.IsInf(f, 1) {
		return PosInf
	}
	if math.IsInf(f, -1) {
		return NegInf
	}
	if math.IsNaN(f) {
		panic(fmt.Errorf("rat: FromFloat(NaN)"))
	}
	neg := f < 0
	if neg {
		f = -f
	}
	// Continued fraction expansion with convergents p/q.
	var (
		p0, q0 int64 = 0, 1
		p1, q1 int64 = 1, 0
		x            = f
	)
	for i := 0; i < 64; i++ {
		a := int64(math.Floor(x))
		p2 := a*p1 + p0
		q2 := a*q1 + q0
		if q2 > maxDen || p2 < 0 || q2 < 0 {
			break
		}
		p0, q0, p1, q1 = p1, q1, p2, q2
		frac := x - math.Floor(x)
		if frac < 1e-15 {
			break
		}
		x = 1 / frac
	}
	r := New(p1, q1)
	if neg {
		r = r.Neg()
	}
	return r
}
