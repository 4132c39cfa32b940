package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Big returns r as a math/big.Rat. Panics on infinities.
func (r Rat) Big() *big.Rat {
	if r.IsInf() {
		panic(fmt.Errorf("rat: Big of %v", r))
	}
	return big.NewRat(r.num, r.den)
}

// roundDenom caps the denominator of FromBig results: values whose
// reduced denominator exceeds it are rounded to multiples of
// 2^-20 ≈ 1e-6, far below any tolerance that matters to the analyses
// (which use FromBig only for utilization *bounds*, never for exact
// demand ratios). The cap also leaves ample headroom for the downstream
// products the analysis walks form with event positions.
const roundDenom = int64(1) << 20

// Round rounds r onto the same 2^-20 grid FromBig uses — upward when up
// is true, downward otherwise — returning r unchanged when its reduced
// denominator is already at most 2^20. It matches FromBig(r.Big(), up)
// exactly without allocating: the quotient |num|·2^20/den is taken in 128
// bits. Infinities pass through unchanged.
func (r Rat) Round(up bool) Rat {
	if r.den == 0 || r.den <= roundDenom {
		return r
	}
	// |num|·2^20 < 2^84 and den > 2^20, so the 128-bit quotient (the
	// truncated magnitude) is below 2^63 and Div64 cannot overflow.
	hi, lo := bits.Mul64(absU(r.num), uint64(roundDenom))
	q, rem := bits.Div64(hi, lo, uint64(r.den))
	if rem != 0 && up == (r.num > 0) {
		q++ // the directed rounding moves away from zero
	}
	if q > math.MaxInt64/2 {
		return FromBig(r.Big(), up) // beyond the grid's range: FromBig panics
	}
	if r.num < 0 {
		return New(-int64(q), roundDenom)
	}
	return New(int64(q), roundDenom)
}

// FromBig converts v to a Rat. The conversion is exact whenever v's
// reduced denominator is at most 2^20 (and the numerator fits int64);
// otherwise the value is directed-rounded to a multiple of 1/2^20 —
// upward when roundUp is true, downward otherwise — so callers can
// maintain sound lower/upper bounds. It panics when |v| is too large for
// that grid; FromBigChecked reports it instead.
func FromBig(v *big.Rat, roundUp bool) Rat {
	r, ok := FromBigChecked(v, roundUp)
	if !ok {
		panic(fmt.Errorf("rat: FromBig magnitude too large: %v", v))
	}
	return r
}

// FromBigChecked is FromBig returning false instead of panicking when the
// rounded value does not fit the 2^-20 grid's int64 range (|v| ≳ 2^42).
func FromBigChecked(v *big.Rat, roundUp bool) (Rat, bool) {
	if v.Num().IsInt64() && v.Denom().IsInt64() && v.Denom().Int64() <= roundDenom {
		return New(v.Num().Int64(), v.Denom().Int64()), true
	}
	scaled := new(big.Rat).Mul(v, big.NewRat(roundDenom, 1))
	num := new(big.Int).Quo(scaled.Num(), scaled.Denom()) // truncates toward zero
	// Fix truncation into directed rounding.
	exact := new(big.Int).Mul(num, scaled.Denom())
	if exact.Cmp(scaled.Num()) != 0 {
		if roundUp && v.Sign() > 0 {
			num.Add(num, big.NewInt(1))
		}
		if !roundUp && v.Sign() < 0 {
			num.Sub(num, big.NewInt(1))
		}
	}
	if !num.IsInt64() {
		return Rat{}, false
	}
	n := num.Int64()
	if n > math.MaxInt64/2 || n < math.MinInt64/2 {
		return Rat{}, false
	}
	return New(n, roundDenom), true
}
