package core

import (
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TestExample2 reproduces the paper's Example 2 on the Table-I set:
// the service resetting time is 6 at s = 2, and larger (here 9) at the
// minimum speedup s = 4/3.
func TestExample2(t *testing.T) {
	s := examplesets.TableI()
	r2, err := ResetTime(s, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if want := rat.FromInt64(6); !r2.Reset.Eq(want) {
		t.Fatalf("Δ_R(s=2) = %v, want %v", r2.Reset, want)
	}
	r43, err := ResetTime(s, rat.New(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := rat.FromInt64(9); !r43.Reset.Eq(want) {
		t.Fatalf("Δ_R(s=4/3) = %v, want %v", r43.Reset, want)
	}
	if r43.Reset.Cmp(r2.Reset) <= 0 {
		t.Error("higher speed must not lengthen recovery")
	}

	// Degradation shortens recovery further (Example 2's last point).
	d2, err := ResetTime(examplesets.TableIDegraded(), rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reset.Cmp(r2.Reset) >= 0 {
		t.Errorf("degraded Δ_R(2) = %v, want < %v", d2.Reset, r2.Reset)
	}
}

// TestResetDefinition verifies eq. (12) directly: the returned Δ_R
// satisfies the arrived-demand condition, and no earlier point does.
func TestResetDefinition(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 15)
		speed := rat.New(rnd.Int63n(30)+5, 10) // 0.5 .. 3.4
		res, err := ResetTime(s, speed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reset.IsInf() {
			if speed.Cmp(s.Util(task.HI)) > 0 {
				t.Fatalf("infinite Δ_R although speed %v > U_HI %v:\n%s", speed, s.Util(task.HI), s.Table())
			}
			continue
		}
		// Condition holds at Δ_R.
		adbAt := func(d rat.Rat) rat.Rat {
			sum := rat.Zero
			for j := range s {
				sum = sum.Add(dbf.ADBAt(&s[j], d))
			}
			return sum
		}
		if adbAt(res.Reset).Cmp(speed.Mul(res.Reset)) > 0 {
			t.Fatalf("ADB(Δ_R) > s·Δ_R for set:\n%s speed=%v Δ_R=%v", s.Table(), speed, res.Reset)
		}
		// No earlier point satisfies it: sample rationally below Δ_R.
		for k := int64(1); k <= 40; k++ {
			d := res.Reset.MulInt(k).Div(rat.FromInt64(41))
			if adbAt(d).Cmp(speed.Mul(d)) <= 0 {
				t.Fatalf("condition already holds at %v < Δ_R = %v for:\n%s speed=%v",
					d, res.Reset, s.Table(), speed)
			}
		}
	}
}

func TestResetInfiniteWhenSpeedAtOrBelowUtil(t *testing.T) {
	s := examplesets.TableI() // U_HI = 4/10 + 2/10 = 3/5
	u := s.Util(task.HI)
	if !u.Eq(rat.New(3, 5)) {
		t.Fatalf("unexpected U_HI %v", u)
	}
	for _, sp := range []rat.Rat{u, u.Mul(rat.New(1, 2)), rat.New(1, 10)} {
		res, err := ResetTime(s, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reset.IsInf() {
			t.Errorf("Δ_R(speed=%v) = %v, want +Inf", sp, res.Reset)
		}
	}
}

func TestResetMonotoneInSpeed(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 15)
		prev := rat.PosInf
		for num := int64(8); num <= 40; num += 4 { // speeds 0.8 .. 4.0
			res, err := ResetTime(s, rat.New(num, 10))
			if err != nil {
				t.Fatal(err)
			}
			if res.Reset.Cmp(prev) > 0 {
				t.Fatalf("Δ_R increased with speed for:\n%s", s.Table())
			}
			prev = res.Reset
		}
	}
}

func TestResetTerminatedOnly(t *testing.T) {
	s := task.Set{task.NewLO("l", 10, 10, 3)}.TerminateLO()
	res, err := ResetTime(s, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	// The carry-over job's 3 units drain at speed 2.
	if want := rat.New(3, 2); !res.Reset.Eq(want) {
		t.Errorf("Δ_R = %v, want %v", res.Reset, want)
	}
}

func TestResetRejectsBadInput(t *testing.T) {
	s := examplesets.TableI()
	for _, sp := range []rat.Rat{rat.Zero, rat.New(-1, 2), rat.PosInf} {
		if _, err := ResetTime(s, sp); err == nil {
			t.Errorf("speed %v accepted", sp)
		}
	}
	if _, err := ResetTime(task.Set{}, rat.Two); err == nil {
		t.Error("empty set accepted")
	}
}

func TestSustainableOverrunGap(t *testing.T) {
	if !SustainableOverrunGap(rat.FromInt64(5), 5) {
		t.Error("Δ_R = T_O should be sustainable")
	}
	if SustainableOverrunGap(rat.FromInt64(6), 5) {
		t.Error("Δ_R > T_O should not be sustainable")
	}
	if SustainableOverrunGap(rat.PosInf, 1000) {
		t.Error("infinite Δ_R should not be sustainable")
	}
}

// adbSum is Σ_i ADB_HI(τ_i, Δ) at a rational Δ, by the rational closed
// form of each task's arrived-demand bound.
func adbSum(s task.Set, d rat.Rat) rat.Rat {
	sum := rat.Zero
	for i := range s {
		sum = sum.Add(dbf.ADBAt(&s[i], d))
	}
	return sum
}

// bruteSegment returns ΣADB_HI at the integer d and the curve's slope on
// the open segment (d, d+1), read off the closed form at the midpoint: on
// integer-parameter sets every ADB event is an integer, so the curve is
// linear between consecutive integers.
func bruteSegment(s task.Set, d task.Time) (v, m rat.Rat) {
	v = adbSum(s, rat.FromInt64(int64(d)))
	mid := adbSum(s, rat.New(2*int64(d)+1, 2))
	return v, mid.Sub(v).MulInt(2)
}

// bruteResetTime recomputes Δ_R of eq. (12) by brute force on small
// integer sets: scan every integer Δ for the first point where
// ΣADB_HI(Δ) ≤ s·Δ, and within each open segment (Δ, Δ+1) solve for the
// exact crossing of the linear piece with the supply line.
func bruteResetTime(s task.Set, speed rat.Rat) rat.Rat {
	if speed.Cmp(s.Util(task.HI)) <= 0 {
		return rat.PosInf
	}
	for d := task.Time(0); ; d++ {
		at := rat.FromInt64(int64(d))
		v, m := bruteSegment(s, d)
		if v.Cmp(speed.Mul(at)) <= 0 {
			return at
		}
		// The segment's left limit at d+1 is v + m; below the supply line
		// there, the crossing solves v + m·t = speed·(d + t), t ∈ (0, 1).
		if v.Add(m).Cmp(speed.Mul(at.Add(rat.One))) < 0 {
			return at.Add(v.Sub(speed.Mul(at)).Div(speed.Sub(m)))
		}
	}
}

// bruteMinSpeedForReset recomputes the speed-for-reset infimum by brute
// force on small integer sets: the curve is linear between consecutive
// integers, so its ratio to Δ is monotone there and the infimum over
// Δ ∈ (0, budget] is the minimum over every integer Δ's value (attained)
// and left limit (approached only).
func bruteMinSpeedForReset(s task.Set, budget task.Time) (speed rat.Rat, attained bool) {
	speed = rat.PosInf
	consider := func(r rat.Rat, pointAttained bool) {
		switch speed.Cmp(r) {
		case 1:
			speed, attained = r, pointAttained
		case 0:
			attained = attained || pointAttained
		}
	}
	for d := task.Time(1); d <= budget; d++ {
		at := rat.FromInt64(int64(d))
		prev, m := bruteSegment(s, d-1)
		consider(prev.Add(m).Div(at), false)
		consider(adbSum(s, at).Div(at), true)
	}
	return speed, attained
}

// TestResetTimeAgainstBruteForce checks the production walk and the
// reference walk against the brute-force scan, so neither is the other's
// only check.
func TestResetTimeAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 12)
		speed := rat.New(rnd.Int63n(30)+5, 10) // 0.5 .. 3.4
		want := bruteResetTime(s, speed)
		got, err := ResetTime(s, speed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceResetTime(s, speed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Reset.Eq(want) || !ref.Reset.Eq(want) {
			t.Fatalf("speed %v: ResetTime %v, reference %v, brute force %v for:\n%s",
				speed, got.Reset, ref.Reset, want, s.Table())
		}
	}
}

// TestMinSpeedForResetAgainstBruteForce is the same three-way check for
// the speed-for-reset infimum and its Attained flag.
func TestMinSpeedForResetAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	for i := 0; i < 300; i++ {
		s := randomSet(rnd, 1+rnd.Intn(4), 12)
		budget := task.Time(1 + rnd.Intn(60))
		want, wantAttained := bruteMinSpeedForReset(s, budget)
		got, err := MinSpeedForReset(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceMinSpeedForReset(s, budget, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []SpeedForResetResult{got, ref} {
			if !r.Speed.Eq(want) || r.Attained != wantAttained {
				t.Fatalf("budget %d: result (%v, %v) (reference %+v), brute force (%v, %v) for:\n%s",
					budget, r.Speed, r.Attained, ref, want, wantAttained, s.Table())
			}
		}
	}
}

// TestResetTimeCrossingOverflow: a speed a hair above U_HI puts the
// crossing far out on a long, shallow segment, where the fixed-width
// crossing arithmetic overflows int64. ResetTime must fall back to the
// exact big.Rat quotient instead of panicking, returning it rounded up by
// less than 2^-20 — still a safe resetting time.
func TestResetTimeCrossingOverflow(t *testing.T) {
	s := task.Set{
		task.NewHI("a", 997, 500, 997, 100, 330),
		task.NewHI("b", 1009, 500, 1009, 100, 336),
		task.NewLO("c", 1013, 1013, 10),
	}
	speed, err := rat.Parse("3533010524288/5242880000000") // U_HI + 10^-7
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResetTime(s, speed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reset.IsInf() {
		t.Fatalf("Δ_R = %v, want finite", res.Reset)
	}
	// The exact crossing on the segment starting at floor(Δ_R).
	d := task.Time(res.Reset.Floor())
	v, m := dbf.SetADB(s, d), dbf.SetRightSlope(s, dbf.KindADB, d)
	exact := new(big.Rat).SetInt64(int64(v - m*d))
	exact.Quo(exact, new(big.Rat).Sub(speed.Big(), new(big.Rat).SetInt64(int64(m))))
	slack := new(big.Rat).Sub(res.Reset.Big(), exact)
	if slack.Sign() < 0 || slack.Cmp(big.NewRat(1, 1<<20)) >= 0 {
		t.Fatalf("Δ_R = %v, exact crossing %v: want rounded up by less than 2^-20", res.Reset, exact.FloatString(9))
	}
	if speed.CmpRatio(int64(v), int64(d)) >= 0 {
		t.Fatalf("condition already holds at %d < Δ_R = %v", d, res.Reset)
	}
	if _, err := Analyze(s, speed); err != nil {
		t.Fatal(err)
	}
}
