package gen

import (
	"math"
	"math/rand"
	"testing"

	"mcspeedup/internal/task"
)

// boundCases lists the n the Bound differential covers: the smallest
// values, every power of two and its neighbours (the mask branch of the
// reference and the values just off it), values near 2^63−1 (where the
// reference rejects almost half of all draws) and random values.
func boundCases(rnd *rand.Rand) []int64 {
	ns := []int64{1, 2, 3, 5, 6, 7, 10, 1000, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2, math.MaxInt64/2 + 1, math.MaxInt64/2 + 2, math.MaxInt64 / 3}
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		ns = append(ns, p-1, p, p+1)
	}
	for i := 0; i < 200; i++ {
		ns = append(ns, 1+rnd.Int63n(1<<uint(1+rnd.Intn(62))))
	}
	return ns
}

// TestBoundMatchesInt63n: Below must return the reference Int63n's
// values and leave the stream in the reference's state, draw for draw.
func TestBoundMatchesInt63n(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for _, n := range boundCases(rnd) {
		b := NewBound(n)
		got := NewStream(rnd.Int63(), 0, 0)
		want, viaInt63n := got, got
		for i := 0; i < 300; i++ {
			g, w, v := got.Below(&b), refInt63n(&want, n), viaInt63n.Int63n(n)
			if g != w || v != w || got != want || viaInt63n != want {
				t.Fatalf("n = %d, draw %d: Below %d (state %x), Int63n %d (state %x), reference %d (state %x)",
					n, i, g, got.state, v, viaInt63n.state, w, want.state)
			}
		}
	}
}

func FuzzBoundBelow(f *testing.F) {
	for _, n := range []int64{1, 2, 3, 7, 1 << 40, 1<<40 + 1, math.MaxInt64, math.MaxInt64/2 + 1} {
		f.Add(uint64(n)*0x9e3779b97f4a7c15, n)
	}
	f.Fuzz(func(t *testing.T, state uint64, n int64) {
		if n <= 0 {
			return
		}
		b := NewBound(n)
		got, want := Stream{state: state}, Stream{state: state}
		for i := 0; i < 8; i++ {
			if g, w := got.Below(&b), refInt63n(&want, n); g != w || got != want {
				t.Fatalf("n = %d, state %x, draw %d: Below %d, reference %d", n, state, i, g, w)
			}
		}
	})
}

// TestSampleMatchesReference: Sample, and a TaskACET reused across a
// task's jobs, must draw the reference ACET.Sample's demands from the
// reference's stream positions, overruns included.
func TestSampleMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	overruns := 0
	for k := 0; k < 2000; k++ {
		band := func() (float64, float64) {
			lo := rnd.Float64()
			return lo, lo + (1-lo)*rnd.Float64()
		}
		var a ACET
		a.LOFloor, a.LOCeil = band()
		a.HIFloor, a.HICeil = band()
		a.OverrunProb = []float64{0, 0.001, 0.5, 1, rnd.Float64()}[k%5]
		crit := task.Crit(k % 2)
		cLO := task.Time(1 + rnd.Int63n([]int64{1, 3, 1000, 1 << 40}[k%4]))
		cHI := cLO + task.Time(rnd.Int63n(3))*task.Time(rnd.Int63n(1000))
		d := a.Draw(crit, cLO, cHI)
		got := NewStream(rnd.Int63(), k, 0)
		viaSample, want := got, got
		for i := 0; i < 50; i++ {
			g, s, w := d.Next(&got), a.Sample(&viaSample, crit, cLO, cHI), refSample(a, &want, crit, cLO, cHI)
			if g != w || s != w || got != want || viaSample != want {
				t.Fatalf("case %d (%+v, crit %v, C %d/%d), job %d: Next %d, Sample %d, reference %d",
					k, a, crit, cLO, cHI, i, g, s, w)
			}
			if w > cLO {
				overruns++
			}
		}
	}
	if overruns == 0 {
		t.Fatal("corpus drew no overrun")
	}
}
