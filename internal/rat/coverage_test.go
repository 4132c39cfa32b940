package rat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Fills the corners the main suites do not reach: infinity arithmetic,
// comparison helpers, and the directed big.Rat conversion.

func TestLessHelpers(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less broken")
	}
	if !a.LessEq(b) || !a.LessEq(a) || b.LessEq(a) {
		t.Error("LessEq broken")
	}
}

func TestAddInfBranches(t *testing.T) {
	if got := FromInt64(5).Add(PosInf); !got.Eq(PosInf) {
		t.Errorf("5 + Inf = %v", got)
	}
	if got := NegInf.Add(FromInt64(5)); !got.Eq(NegInf) {
		t.Errorf("-Inf + 5 = %v", got)
	}
	if got := PosInf.Add(PosInf); !got.Eq(PosInf) {
		t.Errorf("Inf + Inf = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Inf + -Inf did not panic")
		}
	}()
	PosInf.Add(NegInf)
}

func TestMulInfBranches(t *testing.T) {
	if got := PosInf.Mul(FromInt64(-3)); !got.Eq(NegInf) {
		t.Errorf("Inf · -3 = %v", got)
	}
	if got := NegInf.Mul(NegInf); !got.Eq(PosInf) {
		t.Errorf("-Inf · -Inf = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("0 · Inf did not panic")
		}
	}()
	Zero.Mul(PosInf)
}

func TestNegOfInf(t *testing.T) {
	if got := PosInf.Neg(); !got.Eq(NegInf) {
		t.Errorf("-(+Inf) = %v", got)
	}
	if got := NegInf.Inv(); !got.Eq(Zero) {
		t.Errorf("1/-Inf = %v", got)
	}
}

func TestMinWithInf(t *testing.T) {
	if got := Min(PosInf, One); !got.Eq(One) {
		t.Errorf("Min(Inf, 1) = %v", got)
	}
	if got := Min(NegInf, One); !got.Eq(NegInf) {
		t.Errorf("Min(-Inf, 1) = %v", got)
	}
}

func TestBigRoundTrip(t *testing.T) {
	for _, r := range []Rat{New(4, 3), Zero, New(-7, 5), FromInt64(9)} {
		if got := FromBig(r.Big(), true); !got.Eq(r) {
			t.Errorf("Big round trip %v → %v", r, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Big of Inf did not panic")
		}
	}()
	PosInf.Big()
}

// TestRoundMatchesFromBig checks Rat.Round's 128-bit quotient against
// FromBig on fixed-width values with large numerators and denominators
// beyond the grid, where num·2^20 overflows int64, in both directions and
// signs, including the int64 extremes.
func TestRoundMatchesFromBig(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	vals := []Rat{New(math.MaxInt64, (1<<20)+1), New(math.MinInt64+1, (1<<20)+1),
		New(math.MaxInt64, math.MaxInt64-2), New(-(1 << 62), (1<<20)+1)}
	for i := 0; i < 5000; i++ {
		num := rnd.Int63() >> uint(rnd.Intn(40))
		if rnd.Intn(2) == 0 {
			num = -num
		}
		vals = append(vals, New(num, (1<<20)+1+rnd.Int63n(math.MaxInt64-(1<<20)-1)>>uint(rnd.Intn(40))))
	}
	for _, v := range vals {
		for _, up := range []bool{false, true} {
			want, ok := FromBigChecked(v.Big(), up)
			if !ok {
				continue // FromBig panics on such values; Round defers to it
			}
			if got := v.Round(up); got != want {
				t.Fatalf("%v.Round(%v) = %v, FromBig says %v", v, up, got, want)
			}
		}
	}
}

func TestFromBigDirectedRounding(t *testing.T) {
	// A value with a denominator far beyond the 2^20 cap: 1/(2^30+1).
	v := new(big.Rat).SetFrac64(1, (1<<30)+1)
	up := FromBig(v, true)
	down := FromBig(v, false)
	exact, _ := new(big.Float).SetRat(v).Float64()
	if up.Float64() < exact {
		t.Errorf("up-rounded %v below exact %v", up, exact)
	}
	if down.Float64() > exact {
		t.Errorf("down-rounded %v above exact %v", down, exact)
	}
	if up.Cmp(down) < 0 {
		t.Error("up bound below down bound")
	}
	if up.Den() > 1<<20 || down.Den() > 1<<20 {
		t.Errorf("denominators not capped: %v, %v", up, down)
	}
	// Negative values mirror the behavior.
	neg := new(big.Rat).Neg(v)
	nUp := FromBig(neg, true)
	nDown := FromBig(neg, false)
	if nUp.Cmp(nDown) < 0 {
		t.Error("negative bounds inverted")
	}
	// Huge magnitudes are rejected loudly rather than silently wrong.
	defer func() {
		if recover() == nil {
			t.Error("oversized FromBig did not panic")
		}
	}()
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	FromBig(huge, true)
}

func TestCheckedNegOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negating MinInt64 did not panic")
		}
	}()
	Rat{math.MinInt64, 1}.Neg()
}

func TestMulCheckedBoundary(t *testing.T) {
	// Exactly MinInt64 is representable as a product.
	got := FromInt64(math.MinInt64 / 2).Mul(FromInt64(2))
	if got.Num() != math.MinInt64 {
		t.Errorf("MinInt64 product = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("overflowing product did not panic")
		}
	}()
	FromInt64(math.MaxInt64).Mul(FromInt64(2))
}
