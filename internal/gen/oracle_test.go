package gen

// This file keeps the division-based Stream.Int63n and the per-call
// ACET.Sample that shipped before Bound and TaskACET, verbatim apart
// from their receivers, as the oracles for the draw differential tests
// in stream_test.go.

import "mcspeedup/internal/task"

// refInt63n returns a uniform int64 in [0, n), rejecting the biased tail
// exactly as math/rand.Int63n does.
func refInt63n(s *Stream, n int64) int64 {
	if n <= 0 {
		panic("gen: Stream.Int63n with n <= 0")
	}
	if n&(n-1) == 0 { // power of two
		return int64(s.Uint64()>>1) & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := int64(s.Uint64() >> 1)
	for v > max {
		v = int64(s.Uint64() >> 1)
	}
	return v % n
}

// refSample draws one job's ACET from the band for crit, given the
// task's per-mode WCETs.
func refSample(a ACET, rnd *Stream, crit task.Crit, cLO, cHI task.Time) task.Time {
	floor, ceil := a.LOFloor, a.LOCeil
	if crit == task.HI {
		if cHI > cLO && rnd.Float64() < a.OverrunProb {
			// Overrun: uniform over the integers in (C(LO), C(HI)].
			return cLO + 1 + task.Time(refInt63n(rnd, int64(cHI-cLO)))
		}
		floor, ceil = a.HIFloor, a.HICeil
	}
	f := floor + (ceil-floor)*rnd.Float64()
	d := task.Time(f * float64(cLO))
	if d < 1 {
		d = 1
	}
	if d > cLO {
		d = cLO
	}
	return d
}
