package stats

import (
	"fmt"
	"math"
)

// Histogram is an HDR-style latency histogram: geometrically spaced
// buckets between Min and Max, so quantile estimates carry a bounded
// relative error (the bucket growth factor) instead of the unbounded
// error of fixed-width buckets, while memory stays a few kilobytes
// however many observations are recorded. internal/fleet records
// HI-episode lengths into one and reads p50/p90/p99 back out.
//
// Values below Min clamp into the first bucket, values above Max into a
// dedicated overflow bucket whose quantiles report the maximum observed
// value. A Histogram is not safe for concurrent use; callers that
// record from many goroutines guard it or merge per-worker histograms.
type Histogram struct {
	min, max float64
	ratio    float64   // bucket upper-bound growth factor
	bounds   []float64 // upper bounds, ascending; len = buckets
	counts   []uint64  // len = buckets+1; last slot = overflow
	total    uint64
	sum      float64
	maxSeen  float64
}

// NewHistogram builds a histogram spanning [min, max] with perDecade
// buckets per factor-of-10 (e.g. 10 µs – 10 s at 100 buckets/decade is
// 600 buckets with ≤ 2.4 % relative quantile error). It panics on a
// non-positive range or perDecade.
func NewHistogram(min, max float64, perDecade int) *Histogram {
	if !(min > 0) || !(max > min) {
		panic(fmt.Errorf("stats: NewHistogram needs 0 < min < max, got [%g, %g]", min, max))
	}
	if perDecade <= 0 {
		panic(fmt.Errorf("stats: NewHistogram needs perDecade > 0, got %d", perDecade))
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	n := int(math.Ceil(math.Log(max/min)/math.Log(ratio))) + 1
	bounds := make([]float64, n)
	b := min
	for i := range bounds {
		bounds[i] = b
		b *= ratio
	}
	return &Histogram{
		min:    min,
		max:    max,
		ratio:  ratio,
		bounds: bounds,
		counts: make([]uint64, n+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v <= h.min {
		h.counts[0]++
		return
	}
	if v > h.bounds[len(h.bounds)-1] {
		h.counts[len(h.counts)-1]++
		return
	}
	// Direct index: bucket i covers (min·ratio^(i-1), min·ratio^i].
	i := int(math.Ceil(math.Log(v/h.min) / math.Log(h.ratio)))
	if i < 0 {
		i = 0
	}
	// Guard the float boundary: Log rounding can land one bucket early.
	for i < len(h.bounds) && h.bounds[i] < v {
		i++
	}
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of the observations (exact — the sum
// is tracked outside the buckets). It panics on an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		panic(fmt.Errorf("stats: Mean of empty histogram"))
	}
	return h.sum / float64(h.total)
}

// Max returns the maximum observed value (0 on an empty histogram).
func (h *Histogram) Max() float64 { return h.maxSeen }

// HistQuantile returns the q-quantile estimate: the upper bound of the
// bucket holding the ⌈q·count⌉-th observation, so the estimate is an
// upper bound within one bucket ratio of the true value. Overflow
// observations report the exact maximum seen. It panics on an empty
// histogram or q outside [0, 1].
func (h *Histogram) HistQuantile(q float64) float64 {
	if h.total == 0 {
		panic(fmt.Errorf("stats: HistQuantile of empty histogram"))
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Errorf("stats: quantile %v outside [0,1]", q))
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == len(h.counts)-1 {
				return h.maxSeen
			}
			return h.bounds[i]
		}
	}
	return h.maxSeen
}

// Reset discards the observations while keeping the bucket geometry, so
// per-worker histograms can be recycled (the fleet engine reuses one per
// reducer chunk) without reallocating the bounds and counts arrays.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.maxSeen = 0
}

// Merge adds other's observations into h. The histograms must have been
// built with identical parameters; Merge panics otherwise. Merging
// per-worker histograms is how concurrent recorders avoid sharing one
// histogram under a lock.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if len(h.counts) != len(other.counts) || h.min != other.min || h.ratio != other.ratio {
		panic(fmt.Errorf("stats: merging histograms with different bucket layouts"))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.maxSeen > h.maxSeen {
		h.maxSeen = other.maxSeen
	}
}
