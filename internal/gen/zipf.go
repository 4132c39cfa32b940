package gen

import (
	"math"
	"math/rand"
)

// Corpus is a deterministic Zipf-popularity sampler over n ranks: rank 0
// is the hottest item, rank n-1 the coldest, and rank k is drawn with
// probability proportional to 1/(k+1)^s. The repository benchmark's
// serve-zipf workload (perfbench) uses it to skew traffic over a fixed
// set of task sets the way a real analysis service sees a few hot sets
// and a long tail.
//
// Sampling is inverse-CDF over a precomputed table, driven by a private
// *rand.Rand — never the global math/rand source, so a Corpus is a pure
// function of (seed, n, s) and replays identically (determcheck-clean).
// A Corpus is not safe for concurrent use.
type Corpus struct {
	cdf []float64 // cdf[k] = P(rank <= k); cdf[n-1] == 1
	rng *rand.Rand
}

// ZipfCorpus builds a sampler over n ranks with Zipf exponent s > 0,
// seeded by seed (typically a Substream derivation, so parallel harness
// workers get independent but reproducible streams). It panics on
// n <= 0 or a non-positive/NaN s.
func ZipfCorpus(seed int64, n int, s float64) *Corpus {
	if n <= 0 {
		panic("gen: ZipfCorpus needs n > 0")
	}
	if !(s > 0) { // also catches NaN
		panic("gen: ZipfCorpus needs a positive Zipf exponent")
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // exact, despite rounding
	return &Corpus{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of ranks.
func (c *Corpus) Len() int { return len(c.cdf) }

// Next draws the next rank in [0, Len()).
func (c *Corpus) Next() int {
	u := c.rng.Float64()
	// Binary search for the first rank whose CDF reaches u.
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the sampling probability of rank k.
func (c *Corpus) Prob(k int) float64 {
	if k == 0 {
		return c.cdf[0]
	}
	return c.cdf[k] - c.cdf[k-1]
}
