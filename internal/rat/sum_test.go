package rat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestSumMatchesBig folds random terms — small-denominator ones, which
// stay in fixed width, and on every other fold also large-denominator
// ones, which force the big.Rat promotion — and checks after every step
// that Plus left its receiver alone and that the value, Cmp and both Round directions agree with a
// math/big reference fold.
func TestSumMatchesBig(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	promoted := 0
	for iter := 0; iter < 200; iter++ {
		var s Sum
		ref := new(big.Rat)
		for k := 0; k < 40; k++ {
			den := 1 + rnd.Int63n(12) // lcm(1..12) keeps the fold fixed-width
			if iter%2 == 1 && rnd.Intn(4) == 0 {
				den = 1e6 + rnd.Int63n(1e9)
			}
			v := New(rnd.Int63n(2*den)-den/2, den)
			before := new(big.Rat).Set(s.Big())
			next := s.Plus(v)
			if s.Big().Cmp(before) != 0 {
				t.Fatalf("Plus mutated its receiver: %v became %v", before, s.Big())
			}
			s = next
			ref.Add(ref, v.Big())
			if s.Big().Cmp(ref) != 0 {
				t.Fatalf("Sum = %v, big.Rat says %v", s.Big(), ref)
			}
			if r, ok := s.Rat(); ok && r.Big().Cmp(ref) != 0 {
				t.Fatalf("Sum.Rat = %v, big.Rat says %v", r, ref)
			}
			for _, up := range []bool{false, true} {
				if got, want := s.Round(up), FromBig(ref, up); !got.Eq(want) || got != want {
					t.Fatalf("Round(%v) = %v, FromBig says %v", up, got, want)
				}
			}
			probe := New(rnd.Int63n(41)-20, 7)
			if got, want := s.Cmp(probe), ref.Cmp(probe.Big()); got != want {
				t.Fatalf("Cmp(%v) = %d, big.Rat says %d", probe, got, want)
			}
		}
		if _, ok := s.Rat(); !ok {
			promoted++
		}
	}
	if promoted == 0 || promoted == 200 {
		t.Fatalf("%d of 200 folds promoted to big.Rat: both paths must be covered", promoted)
	}
}

func TestSumZeroValueAndBigSum(t *testing.T) {
	var s Sum
	if r, ok := s.Rat(); !ok || !r.Eq(Zero) || s.Cmp(Zero) != 0 || !s.Round(true).Eq(Zero) {
		t.Fatalf("zero Sum reads %v, %v", r, ok)
	}
	if got := s.Plus(New(1, 3)); got.Cmp(New(1, 3)) != 0 {
		t.Fatalf("0 + 1/3 = %v", got.Big())
	}
	b := BigSum(big.NewRat(2, 5))
	if _, ok := b.Rat(); ok {
		t.Fatal("BigSum reported a fixed-width value")
	}
	if got := b.Plus(New(1, 5)); got.Cmp(New(3, 5)) != 0 {
		t.Fatalf("2/5 + 1/5 = %v", got.Big())
	}
}

func TestMulChecked(t *testing.T) {
	const maxI = int64(math.MaxInt64)
	cases := []struct {
		a, b Rat
		ok   bool
	}{
		{New(3, 4), New(8, 9), true},
		{New(-5, 7), New(14, 15), true},
		{New(maxI, 2), New(2, 3), true}, // cross-reduction keeps it in range
		{New(maxI, 3), New(2, 1), false},
		{New(1, maxI), New(1, 2), false},
		{PosInf, One, false},
		{One, NegInf, false},
	}
	for _, tc := range cases {
		got, ok := tc.a.MulChecked(tc.b)
		if ok != tc.ok {
			t.Fatalf("MulChecked(%v, %v) ok = %v, want %v", tc.a, tc.b, ok, tc.ok)
		}
		if !ok {
			if got != Zero {
				t.Fatalf("MulChecked(%v, %v) = %v on refusal, want Zero", tc.a, tc.b, got)
			}
			continue
		}
		if got != tc.a.Mul(tc.b) {
			t.Fatalf("MulChecked(%v, %v) = %v but Mul = %v", tc.a, tc.b, got, tc.a.Mul(tc.b))
		}
	}
}
