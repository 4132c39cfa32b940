package rat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewTicksUnits(t *testing.T) {
	cases := []struct {
		name          string
		speed, budget Rat
		want          Ticks
	}{
		{"7/5 budget 9/4", New(7, 5), New(9, 4),
			Ticks{HITime: 28, HIWork: 20, Budget: 63, TripTime: 5, TripWork: 7, slow: 1, max: 140}},
		{"2 no budget", Two, Zero,
			Ticks{HITime: 2, HIWork: 1, TripTime: 1, TripWork: 2, slow: 1, max: 2}},
		{"1/2 zero-value budget", New(1, 2), Rat{},
			Ticks{HITime: 1, HIWork: 2, TripTime: 2, TripWork: 1, slow: 2, max: 1}},
		{"2/3 budget 5/2", New(2, 3), New(5, 2),
			Ticks{HITime: 4, HIWork: 6, Budget: 10, TripTime: 3, TripWork: 2, slow: 2, max: 12}},
		{"1 budget +Inf", One, PosInf,
			Ticks{HITime: 1, HIWork: 1, TripTime: 1, TripWork: 1, slow: 1, max: 1}},
		{"3/2 negative budget", New(3, 2), New(-1, 2),
			Ticks{HITime: 3, HIWork: 2, TripTime: 2, TripWork: 3, slow: 1, max: 3}},
		{"budget beyond the grid", New(3, 2), FromInt64(math.MaxInt64 / 2),
			Ticks{HITime: 3, HIWork: 2, Budget: math.MaxInt64, TripTime: 2, TripWork: 3, slow: 1, max: 6}},
	}
	for _, c := range cases {
		got, ok := NewTicks(c.speed, c.budget)
		if !ok || got != c.want {
			t.Errorf("%s: NewTicks = %+v, %v; want %+v", c.name, got, ok, c.want)
		}
	}
	for _, c := range []struct{ speed, budget Rat }{
		{FromInt64(math.MaxInt64), New(1, 2)},               // p·bd
		{New(1, math.MaxInt64), New(1, 3)},                  // q·bd
		{New(1<<20+1, 1<<20), New(1, 1<<23)},                // bd·p·q
		{New(math.MaxInt64-1, math.MaxInt64), FromInt64(2)}, // p·q
	} {
		if got, ok := NewTicks(c.speed, c.budget); ok {
			t.Errorf("NewTicks(%v, %v) = %+v, want unrepresentable", c.speed, c.budget, got)
		}
	}
}

// TestTicksFitsBoundary pins the span check at its edge: the span times
// the finest unit must stay strictly below math.MaxInt64, the loop's
// "never" sentinel. 2^63 − 1 is divisible by 7, so speed 7 puts the
// product exactly on the sentinel.
func TestTicksFitsBoundary(t *testing.T) {
	tk, ok := NewTicks(FromInt64(7), Zero)
	if !ok {
		t.Fatal("NewTicks(7) failed")
	}
	k := int64(math.MaxInt64 / 7)
	if !tk.Fits(k-1, 0, 0) || !tk.Fits(k-3, 1, 1) {
		t.Error("span just below the sentinel rejected")
	}
	if tk.Fits(k, 0, 0) || tk.Fits(k-2, 1, 1) {
		t.Error("span landing on the sentinel accepted")
	}
	// At speed 1/3 each unit of work may take 3 time units.
	slow, _ := NewTicks(New(1, 3), Zero)
	w := int64(math.MaxInt64 / 3)
	if slow.Fits(0, w, 1) || !slow.Fits(0, w-1, 0) {
		t.Error("slow-speed work term not scaled by ⌈q/p⌉")
	}
	for _, args := range [][3]int64{
		{math.MaxInt64, 0, 0}, {0, math.MaxInt64, 0}, {1, 1, math.MaxInt64 - 1},
	} {
		if tk.Fits(args[0], args[1], args[2]) {
			t.Errorf("Fits%v overflowed into true", args)
		}
	}
}

// TestTicksExact checks the identities the simulator's int64 loop rests
// on, against Rat arithmetic, on random speeds and budgets: HI ticks are
// exact instants, running dt time ticks at s does dt work ticks, the
// budget is an integer tick count, and the trip rescaling keeps every
// instant and work amount while making time and work ticks coincide.
func TestTicksExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		speed := New(1+rnd.Int63n(60), 1+rnd.Int63n(60))
		budget := New(1+rnd.Int63n(90), 1+rnd.Int63n(12))
		tk, ok := NewTicks(speed, budget)
		if !ok {
			t.Fatalf("NewTicks(%v, %v) failed", speed, budget)
		}
		dt := rnd.Int63n(1 << 20)
		hiTime, hiWork := New(dt, tk.HITime), New(dt, tk.HIWork)
		if !hiTime.Mul(speed).Eq(hiWork) {
			t.Fatalf("s=%v b=%v: %d time ticks at speed s do %v work, not %d work ticks",
				speed, budget, dt, hiTime.Mul(speed), dt)
		}
		if !New(tk.Budget, tk.HITime).Eq(budget) {
			t.Fatalf("s=%v b=%v: budget %d ticks is %v", speed, budget, tk.Budget, New(tk.Budget, tk.HITime))
		}
		tripUnit := tk.HITime * tk.TripTime
		if tk.HIWork*tk.TripWork != tripUnit {
			t.Fatalf("s=%v b=%v: trip time unit %d != work unit %d", speed, budget, tripUnit, tk.HIWork*tk.TripWork)
		}
		if !New(dt*tk.TripTime, tripUnit).Eq(hiTime) || !New(dt*tk.TripWork, tripUnit).Eq(hiWork) {
			t.Fatalf("s=%v b=%v: trip rescaling moved an instant or a work amount", speed, budget)
		}
		if tk.max != tripUnit {
			t.Fatalf("s=%v b=%v: finest unit %d, want the trip unit %d", speed, budget, tk.max, tripUnit)
		}
	}
}
