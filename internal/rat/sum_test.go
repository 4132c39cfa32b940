package rat

import (
	"math"
	"math/big"
	"math/bits"
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

// TestFolderMatchesSum adds the TestSumMatchesBig corpus, plus terms
// given as big.Rat, through a Folder: after every term its Sum must
// equal the sequential Sum fold, in value and in representation (fixed
// width exactly while the sequential fold is). Term counts up to 300
// carry the pairwise tree over several levels.
func TestFolderMatchesSum(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	promoted := 0
	for iter := 0; iter < 200; iter++ {
		var (
			f   Folder
			seq Sum
		)
		for k := 0; k < 1+iter%4*100; k++ {
			den := 1 + rnd.Int63n(12)
			if iter%2 == 1 && rnd.Intn(4) == 0 {
				den = 1e6 + rnd.Int63n(1e9)
			}
			v := New(rnd.Int63n(2*den)-den/2, den)
			if iter%3 == 2 && rnd.Intn(8) == 0 {
				b := new(big.Rat).Mul(v.Big(), big.NewRat(math.MaxInt64, 3))
				f.AddBig(b)
				seq = BigSum(new(big.Rat).Add(seq.Big(), b))
			} else {
				f.Add(v)
				seq = seq.Plus(v)
			}
			got := f.Sum()
			if got.Big().Cmp(seq.Big()) != 0 {
				t.Fatalf("iter %d, term %d: Folder = %v, sequential fold %v", iter, k, got.Big(), seq.Big())
			}
			r, fixed := got.Rat()
			if w, seqFixed := seq.Rat(); fixed != seqFixed || r != w {
				t.Fatalf("iter %d, term %d: Folder.Rat = %v, %v; sequential %v, %v", iter, k, r, fixed, w, seqFixed)
			}
		}
		if _, ok := f.Sum().Rat(); !ok {
			promoted++
		}
	}
	if promoted == 0 || promoted == 200 {
		t.Fatalf("%d of 200 folds promoted to big.Rat: both paths must be covered", promoted)
	}
}

// TestFolderFixedWidthAllocFree: while every partial sum fits, a Folder
// allocates nothing.
func TestFolderFixedWidthAllocFree(t *testing.T) {
	terms := []Rat{New(1, 2), New(1, 3), New(5, 12), New(-7, 11), New(3, 8)}
	var got Sum
	allocs := testing.AllocsPerRun(100, func() {
		var f Folder
		for _, v := range terms {
			f.Add(v)
		}
		got = f.Sum()
	})
	if _, ok := got.Rat(); !ok || allocs != 0 {
		t.Fatalf("fixed-width fold: %v allocs/op, fixed width %v", allocs, ok)
	}
}

// TestFolderPairwise pins the shape that makes the exact fold cheap:
// after n big terms of value 1 on top of a fixed-width prefix of 1, slot
// k of the counter holds a partial sum exactly when bit k of n+1 is set,
// and it holds the sum of 2^k terms. So no partial sum is ever added to
// one of much different size, and a term passes through at most
// log2(n+1) additions; a running accumulator would fail here.
func TestFolderPairwise(t *testing.T) {
	var f Folder
	f.Add(New(1, 1))
	for n := 1; n <= 1000; n++ {
		f.AddBig(big.NewRat(1, 1))
		if len(f.tree) != bits.Len(uint(n+1)) {
			t.Fatalf("after %d big terms: %d slots, want %d", n, len(f.tree), bits.Len(uint(n+1)))
		}
		for k, v := range f.tree {
			switch {
			case (n+1)>>k&1 == 0 && v != nil:
				t.Fatalf("after %d big terms: slot %d holds %v, want empty", n, k, v)
			case (n+1)>>k&1 == 1 && (v == nil || v.Cmp(big.NewRat(1<<k, 1)) != 0):
				t.Fatalf("after %d big terms: slot %d holds %v, want %d", n, k, v, 1<<k)
			}
		}
		if got := f.Sum().Big(); got.Cmp(big.NewRat(int64(n+1), 1)) != 0 {
			t.Fatalf("after %d big terms: Sum = %v, want %d", n, got, n+1)
		}
	}
}
