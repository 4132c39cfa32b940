package gen

import (
	"math"
	"testing"
)

// TestZipfCorpusGoldenDraws pins the first draws of a Substream-seeded
// corpus. Zipf request streams are replayable by (seed, n, s) alone;
// these values may only change with a deliberate decision to break
// replay compatibility.
func TestZipfCorpusGoldenDraws(t *testing.T) {
	c := ZipfCorpus(Substream(1, 0, 0), 16, 1.1)
	want := []int{0, 0, 0, 0, 7, 5, 3, 1, 0, 2, 15, 1}
	for i, w := range want {
		if got := c.Next(); got != w {
			t.Errorf("draw %d = %d, want %d (golden draw sequence changed!)", i, got, w)
		}
	}
}

// TestZipfCorpusDeterministic: same (seed, n, s) → same sequence; a
// different seed diverges.
func TestZipfCorpusDeterministic(t *testing.T) {
	a := ZipfCorpus(7, 64, 1.0)
	b := ZipfCorpus(7, 64, 1.0)
	diverged := false
	other := ZipfCorpus(8, 64, 1.0)
	for i := 0; i < 256; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("draw %d differs between identically seeded corpora: %d vs %d", i, da, db)
		}
		if da != other.Next() {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical draw sequences")
	}
}

// TestZipfCorpusDistribution: empirical frequencies track the Zipf
// probabilities — rank popularity is monotone decreasing and the hot
// rank's share matches Prob(0) within sampling noise.
func TestZipfCorpusDistribution(t *testing.T) {
	const n, draws = 16, 100000
	c := ZipfCorpus(42, n, 1.1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[c.Next()]++
	}
	for k := 1; k < n; k++ {
		// Allow 10% slack for sampling noise on adjacent ranks.
		if float64(counts[k]) > 1.1*float64(counts[k-1]) {
			t.Errorf("rank %d drawn more often than rank %d (%d vs %d)", k, k-1, counts[k], counts[k-1])
		}
	}
	hot := float64(counts[0]) / draws
	if want := c.Prob(0); math.Abs(hot-want) > 0.01 {
		t.Errorf("rank-0 share %.4f, want %.4f ± 0.01", hot, want)
	}
	var total float64
	for k := 0; k < n; k++ {
		total += c.Prob(k)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %g, want 1", total)
	}
}

func TestZipfCorpusPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"n=0", func() { ZipfCorpus(1, 0, 1.1) }},
		{"s=0", func() { ZipfCorpus(1, 4, 0) }},
		{"s=NaN", func() { ZipfCorpus(1, 4, math.NaN()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}
