package gen

import (
	"math"
	"math/bits"
	"math/rand"
)

// The experiment sweeps are parallelized per task-set index (package
// par), so every index needs a random stream that is (a) independent of
// every other index and (b) a pure function of the experiment seed and
// the index — never of execution order. Substream derives such a stream
// seed from (seed, point, index) with SplitMix64 finalizer mixing, the
// standard splittable-seed construction: each coordinate passes through
// a full 64-bit avalanche, so adjacent seeds, points, and indices land
// in unrelated states.

// mix64 is the SplitMix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"), a bijective 64-bit avalanche.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Substream derives the stream seed for coordinate (point, index) of a
// sweep keyed by seed. point typically identifies the data point (a
// utilization value, a grid cell) and index the task-set draw within it.
// Each coordinate is folded into an already-avalanched state and mixed
// again, so the combination is not commutative — (seed, point, index)
// permutations land on unrelated streams.
func Substream(seed int64, point, index int) int64 {
	const phi = 0x9e3779b97f4a7c15 // SplitMix64 state increment
	z := mix64(uint64(seed))
	z = mix64(z + phi*(uint64(point)+1))
	z = mix64(z + phi*(uint64(index)+1))
	return int64(z)
}

// SubRand returns an independent *rand.Rand for coordinate
// (point, index) of the sweep keyed by seed. Its draws are exactly those
// of rand.New(rand.NewSource(Substream(seed, point, index))); only the
// seeding is cheaper (see lfSource).
func SubRand(seed int64, point, index int) *rand.Rand {
	src := new(lfSource)
	src.Seed(Substream(seed, point, index))
	return rand.New(src)
}

// The parameters of math/rand's additive lagged Fibonacci generator
// (rngSource): register length, tap distance, and the modulus of the
// Lehmer generator x ← 48271·x mod (2^31−1) that seeds the register.
const (
	lfLen    = 607
	lfTap    = 273
	lfMask   = 1<<63 - 1
	lehmerM  = 1<<31 - 1
	lehmerA  = 48271
	lfWarmup = 20 // Lehmer steps rngSource.Seed discards before vec[0]
)

// lfSource is a rand.Source64 that reproduces math/rand's rngSource
// exactly — the same register, tap, Seed normalisation and Uint64/Int63
// loop — with a cheaper Seed. rngSource.Seed steps the Lehmer generator
// 1841 times in one dependent chain; the three values behind register
// word i are seed·A^(21+3i+j) mod M for j = 0, 1, 2, so with the powers
// tabled (lfPow) every word is three independent multiplications.
type lfSource struct {
	tap  int
	feed int
	vec  [lfLen]int64
}

// lfPow[i][j] = A^(lfWarmup+1+3i+j) mod M, and lfCooked is math/rand's
// rngCooked table, the constant XORed into each register word at seeding.
var lfPow, lfCooked = lfTables()

// Seed initialises the register as rngSource.Seed does.
func (r *lfSource) Seed(seed int64) {
	r.tap = 0
	r.feed = lfLen - lfTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s := uint64(seed)
	for i := range r.vec {
		r.vec[i] = lfWord(s, &lfPow[i]) ^ lfCooked[i]
	}
}

// lfWord is rngSource.Seed's word before the cooked XOR: the three
// Lehmer values x0, x1, x2 packed as x0<<40 ^ x1<<20 ^ x2, bits above
// 63 dropped.
func lfWord(seed uint64, pow *[3]uint64) int64 {
	x0 := seed * pow[0] % lehmerM
	x1 := seed * pow[1] % lehmerM
	x2 := seed * pow[2] % lehmerM
	return int64(x0<<40 ^ x1<<20 ^ x2)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *lfSource) Int63() int64 {
	return int64(r.Uint64() & lfMask)
}

// Uint64 returns the next register sum, as rngSource.Uint64 does.
func (r *lfSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// lfTables computes lfPow and recovers rngCooked from math/rand itself:
// the first lfLen outputs of rand.NewSource(1) determine its initial
// register, and XORing off seed 1's Lehmer words leaves the cooked
// table. Output k adds register words feed = 333−k and tap = 606−k (mod
// lfLen), each updated in place, so
//
//	out_k = orig[333−k] + orig[606−k]      for k < 273,
//	out_k = orig[(333−k) mod 607] + out_{k−273}  for 273 ≤ k < 607,
//
// because the tap word read at step k ≥ 273 is the one step k−273 wrote.
// The second line gives orig[60..0] and orig[606..334]; the first then
// gives orig[333..61].
func lfTables() (pow [lfLen][3]uint64, cooked [lfLen]int64) {
	x := uint64(1)
	for range lfWarmup {
		x = x * lehmerA % lehmerM
	}
	for i := range pow {
		for j := range pow[i] {
			x = x * lehmerA % lehmerM
			pow[i][j] = x
		}
	}
	ref := rand.NewSource(1).(rand.Source64)
	var out, orig [lfLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	const feed0 = lfLen - lfTap - 1 // 333: the first feed index
	for k := lfTap; k < lfLen; k++ {
		orig[(feed0-k+lfLen)%lfLen] = out[k] - out[k-lfTap]
	}
	for k := 0; k < lfTap; k++ {
		orig[feed0-k] = out[k] - orig[lfLen-1-k]
	}
	for i := range cooked {
		cooked[i] = orig[i] ^ lfWord(1, &pow[i])
	}
	return pow, cooked
}

// Stream is a SplitMix64 sequence generator over a Substream coordinate:
// the same splittable keying as SubRand without rand.NewSource's
// expensive Lagged-Fibonacci warm-up, so hot loops (the fleet engine
// seeds one stream per (replicate, task) — millions per fleet) can
// reseed in a few instructions. The zero value is the (0,0,0) stream;
// Reseed repositions it.
type Stream struct {
	state uint64
}

// NewStream returns the stream for coordinate (point, index) of the
// sweep keyed by seed.
func NewStream(seed int64, point, index int) Stream {
	var s Stream
	s.Reseed(seed, point, index)
	return s
}

// Reseed repositions the stream to coordinate (point, index) of seed.
func (s *Stream) Reseed(seed int64, point, index int) {
	s.state = uint64(Substream(seed, point, index))
}

// Uint64 returns the next value of the SplitMix64 sequence.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next returns the stream advanced by one draw, and that draw: after
// s, u = s.Next(), u is what s.Uint64() would have returned. A pointer
// method such as Uint64 takes the stream's address even when inlined,
// which keeps the state in memory; a loop that draws only through Next
// can keep it in a register.
func (s Stream) Next() (Stream, uint64) {
	u := s.Uint64()
	return s, u
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 { return Unit(s.Uint64()) }

// Unit maps one Uint64 draw u to Float64's value: the top 53 bits of u
// over 2^53, a uniform float64 in [0, 1). The 53 bits convert through
// int64, the same value by a single instruction where an unsigned
// conversion needs a branch.
func Unit(u uint64) float64 { return float64(int64(u>>11)) / (1 << 53) }

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0,
// matching math/rand, and rejects the biased tail exactly as
// math/rand.Int63n does. Loops drawing many values below one n should
// build its Bound once and call Below.
func (s *Stream) Int63n(n int64) int64 {
	b := NewBound(n)
	return s.Below(&b)
}

// Bound is Int63n(n) with its constants precomputed: the rejection
// threshold and the reciprocal that turns the remainder into a multiply.
// Below draws exactly the values, and consumes exactly the stream, that
// Int63n(n) does, without a division.
type Bound struct {
	n   uint64
	max uint64 // the largest accepted 63-bit draw: 2^63−1 − 2^63 mod n
	m   uint64 // ⌊(2^64−1)/n⌋
}

// NewBound precomputes Int63n(n). It panics if n <= 0, as Int63n does.
func NewBound(n int64) Bound {
	if n <= 0 {
		panic("gen: Stream.Int63n with n <= 0")
	}
	u := uint64(n)
	return Bound{n: u, max: (1<<63 - 1) - (1<<63)%u, m: math.MaxUint64 / u}
}

// Below returns Int63n(b's n): 63-bit draws above the threshold are
// rejected (for a power of two there are none, so its single draw
// matches Int63n's masked one), and the remainder v mod n comes from
// q = hi(v·m), r = v − q·n. For v < 2^63, m·n > 2^64 − 1 − n puts q at
// ⌊v/n⌋ or one below it, so one conditional subtraction finishes the
// remainder (Granlund–Montgomery invariant division).
func (s *Stream) Below(b *Bound) int64 {
	v := s.Uint64() >> 1
	for !b.Accepts(v) {
		v = s.Uint64() >> 1
	}
	return b.Reduce(v)
}

// Accepts reports whether the 63-bit draw v lies at or below the
// rejection threshold; Below redraws until it does.
func (b *Bound) Accepts(v uint64) bool { return v <= b.max }

// Reduce returns v mod n for an accepted 63-bit draw v: the value Below
// returns for it.
func (b *Bound) Reduce(v uint64) int64 {
	q, _ := bits.Mul64(v, b.m)
	r := v - q*b.n
	if r >= b.n {
		r -= b.n
	}
	return int64(r)
}
