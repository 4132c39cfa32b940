package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TestWalkerResetReuse pins the pooled-walker contract: a walker Reset
// onto a new (set, kind) must produce the exact event sequence a freshly
// constructed walker does, regardless of what it walked before or how
// far it got.
func TestWalkerResetReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	w := &hiWalker{}
	for trial := 0; trial < 50; trial++ {
		s := randomSet(rnd, 2+rnd.Intn(10), 30)
		kind := dbf.KindDBF
		if trial%2 == 1 {
			kind = dbf.KindADB
		}
		// Leave the reused walker mid-walk sometimes, fully drained others.
		w.Reset(s, kind)
		fresh := newHIWalker(s, kind)
		steps := 200 + rnd.Intn(200)
		for step := 0; step < steps; step++ {
			okR := w.Next()
			okF := fresh.Next()
			if okR != okF {
				t.Fatalf("trial %d step %d: reused Next=%v fresh Next=%v", trial, step, okR, okF)
			}
			if !okR {
				break
			}
			if w.Pos() != fresh.Pos() || w.Value() != fresh.Value() || w.Slope() != fresh.Slope() {
				t.Fatalf("trial %d step %d: reused (%d,%d,%d) != fresh (%d,%d,%d)\n%s",
					trial, step, w.Pos(), w.Value(), w.Slope(),
					fresh.Pos(), fresh.Value(), fresh.Slope(), s.Table())
			}
			nR, okNR := w.PeekNext()
			nF, okNF := fresh.PeekNext()
			if nR != nF || okNR != okNF {
				t.Fatalf("trial %d step %d: reused PeekNext (%d,%v) != fresh (%d,%v)",
					trial, step, nR, okNR, nF, okNF)
			}
			if rnd.Intn(64) == 0 {
				break // abandon mid-walk; next Reset must not care
			}
		}
	}
}

// TestScratchEquivalence pins that threading a Scratch through Options
// changes nothing about any analysis result.
func TestScratchEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	sc := new(Scratch)
	withSc := Options{Scratch: sc}
	for trial := 0; trial < 40; trial++ {
		s := randomSet(rnd, 2+rnd.Intn(8), 25)

		cold, err1 := MinSpeedup(s)
		warm, err2 := MinSpeedupOpts(s, withSc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: MinSpeedup err mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 == nil && cold != warm {
			t.Fatalf("trial %d: MinSpeedup %+v != with-Scratch %+v", trial, cold, warm)
		}

		speed := rat.New(int64(1+rnd.Intn(3)), 1).Add(rat.New(int64(rnd.Intn(4)), 4))
		rCold, err1 := ResetTime(s, speed)
		rWarm, err2 := ResetTimeOpts(s, speed, withSc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: ResetTime err mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 == nil && rCold != rWarm {
			t.Fatalf("trial %d: ResetTime %+v != with-Scratch %+v", trial, rCold, rWarm)
		}

		budget := task.Time(1 + rnd.Intn(60))
		bCold, err1 := MinSpeedForReset(s, budget)
		bWarm, err2 := MinSpeedForResetOpts(s, budget, withSc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: MinSpeedForReset err mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 == nil && bCold != bWarm {
			t.Fatalf("trial %d: MinSpeedForReset %+v != with-Scratch %+v", trial, bCold, bWarm)
		}
	}
}

// TestScratchNestedFallsBack pins the reentrancy guard: a walk started
// while the same Scratch is mid-walk must fall back to the pool instead
// of clobbering the outer walker's state.
func TestScratchNestedFallsBack(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	s := randomSet(rnd, 6, 20)
	o := Options{Scratch: new(Scratch)}
	outer := o.acquireWalker(s, dbf.KindDBF)
	defer o.releaseWalker(outer)
	outer.Next()
	pos, val := outer.Pos(), outer.Value()

	// A full analysis on the same Options must leave the outer walk alone.
	if _, err := MinSpeedupOpts(s, o); err != nil {
		t.Fatal(err)
	}
	if outer.Pos() != pos || outer.Value() != val {
		t.Fatalf("nested walk corrupted outer walker: pos %d→%d value %d→%d",
			pos, outer.Pos(), val, outer.Value())
	}
}

// TestMinSpeedForResetRepeatable pins the regression the pooled walker
// could introduce: two consecutive budget queries on the same set, same
// Scratch, must return identical results (the second starts from a
// recycled, not freshly built, walker).
func TestMinSpeedForResetRepeatable(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	o := Options{Scratch: new(Scratch)}
	for trial := 0; trial < 30; trial++ {
		s := randomSet(rnd, 2+rnd.Intn(8), 25)
		for _, budget := range []task.Time{1, 7, task.Time(5 + rnd.Intn(100))} {
			first, err1 := MinSpeedForResetOpts(s, budget, o)
			second, err2 := MinSpeedForResetOpts(s, budget, o)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d budget %d: err mismatch %v vs %v", trial, budget, err1, err2)
			}
			if err1 == nil && first != second {
				t.Fatalf("trial %d budget %d: first query %+v != second %+v\n%s",
					trial, budget, first, second, s.Table())
			}
		}
	}
}

// TestCapProbePrunes pins that the witness certificate actually fires:
// probing a sequence of related sets against a cap below their speedup
// must reject most of them without a decision (QPA or walk): the first
// decision's violating point rejects every later query.
func TestCapProbePrunes(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	s := randomSet(rnd, 8, 30)
	base, err := MinSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if base.WitnessDelta == 0 {
		t.Skip("supremum only in the limit; no witness to warm-start from")
	}
	cap := base.Speedup.Sub(rat.New(1, 1000))
	if cap.Sign() <= 0 {
		t.Skip("speedup too small to carve a cap below it")
	}
	st, err := dbf.NewSetState(s)
	if err != nil {
		t.Fatal(err)
	}
	probe := newCapProbe(Options{})
	for i := 0; i < 5; i++ {
		ok, err := probe.meets(st, cap)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("query %d: s_min %v reported within cap %v", i, base.Speedup, cap)
		}
	}
	if probe.decisions != 1 || probe.pruned != 4 {
		t.Fatalf("decisions=%d pruned=%d, want 1 decision then 4 certificate rejections",
			probe.decisions, probe.pruned)
	}
}

// benchTuneSet builds a deterministic mid-size set for the design-search
// benchmarks (harmonic periods keep the hyperperiod small, so walks are
// exact and the benchmark measures steady-state search cost).
func benchTuneSet() task.Set {
	periods := []task.Time{20, 40, 80, 160, 320}
	s := make(task.Set, 0, 10)
	for i := 0; i < 10; i++ {
		p := periods[i%len(periods)]
		c := p / 20
		if i%2 == 0 {
			s = append(s, task.NewHI(benchName(i), p, p/2, p, c, 2*c))
		} else {
			tk := task.NewLO(benchName(i), p, p, c)
			tk.Period[task.HI] = 2 * p
			tk.Deadline[task.HI] = 2 * p
			s = append(s, tk)
		}
	}
	return s
}

func benchName(i int) string { return string(rune('a' + i)) }

func BenchmarkMinimalY(b *testing.B) {
	s := benchTuneSet()
	cap := rat.New(5, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinimalY(s, cap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneDeadlines(b *testing.B) {
	s := benchTuneSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TuneDeadlines(s, rat.New(1, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinSpeedupScratch(b *testing.B) {
	s := benchTuneSet()
	o := Options{Scratch: new(Scratch)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinSpeedupOpts(s, o); err != nil {
			b.Fatal(err)
		}
	}
}
