package gen

import (
	"math"
	"math/rand"
	"testing"
)

func TestSubstreamDeterministic(t *testing.T) {
	if Substream(2015, 3, 7) != Substream(2015, 3, 7) {
		t.Fatal("substream not a pure function of its coordinates")
	}
}

func TestSubstreamCoordinatesIndependent(t *testing.T) {
	// Nearby coordinates must land on distinct stream seeds — the usual
	// failure mode of additive schemes like seed+index, where
	// (point, index) and (point+1, index-1) collide.
	seen := map[int64][3]int64{}
	for _, seed := range []int64{0, 1, 2015, -9} {
		for point := 0; point < 20; point++ {
			for index := 0; index < 20; index++ {
				s := Substream(seed, point, index)
				if prev, dup := seen[s]; dup {
					t.Fatalf("collision: (%d,%d,%d) and %v -> %d",
						seed, point, index, prev, s)
				}
				seen[s] = [3]int64{seed, int64(point), int64(index)}
			}
		}
	}
}

func TestSubRandStreamsDiffer(t *testing.T) {
	a := SubRand(2015, 0, 0)
	b := SubRand(2015, 0, 1)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/16 identical draws across adjacent substreams", same)
	}
}

func TestStreamMatchesSubstreamKeying(t *testing.T) {
	// Identical coordinates restart the identical sequence; any changed
	// coordinate lands on an unrelated one.
	a := NewStream(1, 2, 3)
	b := NewStream(1, 2, 3)
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d diverged for identical coordinates", i)
		}
	}
	b.Reseed(1, 2, 3)
	first := b.Uint64()
	c := NewStream(1, 2, 4)
	if c.Uint64() == first {
		t.Fatal("adjacent index produced the same first draw")
	}
}

func TestStreamInt63nBounds(t *testing.T) {
	s := NewStream(7, 0, 0)
	for _, n := range []int64{1, 2, 3, 10, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Int63n(n); v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[s.Int63n(5)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Int63n(5): value %d drawn %d/50000 times, far from uniform", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	s.Int63n(0)
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(9, 1, 1)
	var sum float64
	for i := 0; i < 20000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g outside [0, 1)", f)
		}
		sum += f
	}
	if mean := sum / 20000; mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean %g far from 0.5", mean)
	}
}

// TestStreamNextMatchesUint64: drawing through Next yields the Uint64
// sequence of the same stream.
func TestStreamNextMatchesUint64(t *testing.T) {
	a, b := NewStream(7, 3, 1), NewStream(7, 3, 1)
	for i := range 1000 {
		var u uint64
		b, u = b.Next()
		if want := a.Uint64(); u != want {
			t.Fatalf("draw %d: Next %#x, Uint64 %#x", i, u, want)
		}
	}
}

// subRandSeeds are the stream seeds TestSubRandMatchesMathRand checks:
// the Seed normalisation's edge cases (zero, ±1, multiples of 2^31−1
// that reduce to zero, the substitute seed 89482311 itself, the int64
// extremes) and 2000 Substream seeds.
func subRandSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -2 * m, m * m, m - 1, m + 1, -m + 1,
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for i := range 2000 {
		seeds = append(seeds, Substream(int64(i/40), i%40, i))
	}
	return seeds
}

// sameDraws reads n rounds through both generators' *rand.Rand methods
// and fails at the first difference. Each round takes one of Int63,
// Uint64, Float64, Intn and Perm, so n = 3000 reads past outputs 273,
// 334 and 607, where the register's tap and feed wrap.
func sameDraws(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for k := range n {
		var g, w uint64
		switch k % 5 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = uint64(got.Intn(1+k)), uint64(want.Intn(1+k))
		case 4:
			for _, v := range want.Perm(4) {
				w = w<<8 | uint64(v)
			}
			for _, v := range got.Perm(4) {
				g = g<<8 | uint64(v)
			}
		}
		if g != w {
			t.Fatalf("seed %d, round %d: %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

// TestSubRandMatchesMathRand: lfSource draws exactly what math/rand's
// own source draws, from a fresh seed and again after Rand.Seed.
func TestSubRandMatchesMathRand(t *testing.T) {
	seeds := subRandSeeds()
	for i, seed := range seeds {
		src := new(lfSource)
		src.Seed(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		sameDraws(t, seed, got, want, 3000)
		reseed := seeds[(i+1)%len(seeds)]
		got.Seed(reseed)
		want.Seed(reseed)
		sameDraws(t, reseed, got, want, 3000)
	}
	a, b := SubRand(2015, 3, 7), rand.New(rand.NewSource(Substream(2015, 3, 7)))
	sameDraws(t, Substream(2015, 3, 7), a, b, 3000)
}

func FuzzSubRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed, seed+1)
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64) {
		src := new(lfSource)
		src.Seed(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		sameDraws(t, seed, got, want, 700)
		got.Seed(reseed)
		want.Seed(reseed)
		sameDraws(t, reseed, got, want, 700)
	})
}

func BenchmarkSubRand(b *testing.B) {
	for i := range b.N {
		SubRand(1, 13, i).Int63()
	}
}
