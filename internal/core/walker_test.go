package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/task"
)

// TestWalkerMatchesDirectEvaluation: the incremental walker's position,
// value, and slope — all read from the compiled plan — must equal the
// direct O(n)-per-event scalar evaluation (dbf.SetHIMode/SetADB/
// SetRightSlope) at every event.
func TestWalkerMatchesDirectEvaluation(t *testing.T) {
	rnd := rand.New(rand.NewSource(301))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 20)
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			w := newHIWalker(s, kind)
			pos := task.Time(0)
			for step := 0; step < 200; step++ {
				wantNext, wantOK := dbf.SetNextEvent(s, kind, pos)
				gotNext, gotOK := w.PeekNext()
				if wantOK != gotOK {
					t.Fatalf("PeekNext ok mismatch at %d", pos)
				}
				if !wantOK {
					break
				}
				if gotNext != wantNext {
					t.Fatalf("next event %d, want %d (pos %d)", gotNext, wantNext, pos)
				}
				if !w.Next() {
					t.Fatal("Next failed with pending events")
				}
				pos = wantNext
				var wantVal task.Time
				if kind == dbf.KindDBF {
					wantVal = dbf.SetHIMode(s, pos)
				} else {
					wantVal = dbf.SetADB(s, pos)
				}
				if w.Value() != wantVal {
					t.Fatalf("kind %d: value at %d = %d, want %d\n%s",
						kind, pos, w.Value(), wantVal, s.Table())
				}
				if got, want := w.Slope(), dbf.SetRightSlope(s, kind, pos); got != want {
					t.Fatalf("kind %d: slope at %d = %d, want %d", kind, pos, got, want)
				}
			}
		}
	}
}

// TestMinSpeedupMatchesReference: the production walk (planned, pruned)
// must reproduce the reference walk's payload on every exact result and
// never examine more events.
func TestMinSpeedupMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(302))
	for iter := 0; iter < 400; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 25)
		got, err1 := MinSpeedup(s)
		want, err2 := referenceMinSpeedup(s, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if want.Exact && !sameSpeedupPayload(got, want) {
			t.Fatalf("walk result %+v != reference %+v for:\n%s", got, want, s.Table())
		}
		if got.Events > want.Events {
			t.Fatalf("walk examined %d events, reference %d for:\n%s", got.Events, want.Events, s.Table())
		}
	}
}

func TestWalkerOnTableI(t *testing.T) {
	s := examplesets.TableI()
	w := newHIWalker(s, dbf.KindDBF)
	if w.Pos() != 0 || w.Value() != 0 {
		t.Fatalf("initial state: pos %d value %d", w.Pos(), w.Value())
	}
	// First event: τ2's carry ramp starts immediately (gap 0), so the
	// slope at 0 is 1 and the first event is the ramp end at C(LO) = 2.
	if w.Slope() != 1 {
		t.Fatalf("slope at 0 = %d, want 1", w.Slope())
	}
	next, ok := w.PeekNext()
	if !ok || next != 2 {
		t.Fatalf("first event at %d, want 2", next)
	}
}

// TestWalkerCoincidentEvents: several distinct tasks firing at the same
// event time must all be absorbed by one Next() call, leaving the exact
// summed value and right-slope. Identical task copies make every event
// a multi-task event.
func TestWalkerCoincidentEvents(t *testing.T) {
	s := task.Set{
		task.NewHI("a", 10, 6, 9, 2, 4),
		task.NewHI("b", 10, 6, 9, 2, 4), // exact copy of a
		task.NewHI("c", 10, 6, 9, 2, 4), // exact copy of a
		task.NewLO("d", 10, 8, 3),
		task.NewLO("e", 10, 8, 3), // exact copy of d
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
		w := newHIWalker(s, kind)
		prev := task.Time(0)
		for step := 0; step < 100; step++ {
			if !w.Next() {
				break
			}
			if w.Pos() <= prev {
				t.Fatalf("kind %d: position did not advance past %d (coincident events not absorbed together)", kind, prev)
			}
			prev = w.Pos()
			var wantVal task.Time
			if kind == dbf.KindDBF {
				wantVal = dbf.SetHIMode(s, w.Pos())
			} else {
				wantVal = dbf.SetADB(s, w.Pos())
			}
			if w.Value() != wantVal {
				t.Fatalf("kind %d: value at %d = %d, want %d", kind, w.Pos(), w.Value(), wantVal)
			}
			if got, want := w.Slope(), dbf.SetRightSlope(s, kind, w.Pos()); got != want {
				t.Fatalf("kind %d: slope at %d = %d, want %d", kind, w.Pos(), got, want)
			}
		}
	}
}

// TestWalkerPropertyCoincidenceHeavy: property test on random sets whose
// periods share small divisors, so same-time events across tasks are the
// rule rather than the exception. At every event the walker's value and
// slope must equal brute-force re-evaluation (dbf.SetHIMode/SetADB and
// dbf.SetRightSlope).
func TestWalkerPropertyCoincidenceHeavy(t *testing.T) {
	periods := []task.Time{4, 6, 8, 12}
	rnd := rand.New(rand.NewSource(304))
	for iter := 0; iter < 150; iter++ {
		n := 2 + rnd.Intn(6)
		s := make(task.Set, 0, n)
		for i := 0; i < n; i++ {
			period := periods[rnd.Intn(len(periods))]
			cLO := task.Time(rnd.Int63n(int64(period)/2) + 1)
			name := string(rune('a' + i))
			if rnd.Intn(2) == 0 {
				cHI := cLO + task.Time(rnd.Int63n(int64(period-cLO)+1))
				dHI := cHI + task.Time(rnd.Int63n(int64(period-cHI)+1))
				dLO := cLO + task.Time(rnd.Int63n(int64(dHI-cLO)+1))
				s = append(s, task.NewHI(name, period, dLO, dHI, cLO, cHI))
			} else {
				dLO := cLO + task.Time(rnd.Int63n(int64(period-cLO)+1))
				s = append(s, task.NewLO(name, period, dLO, cLO))
			}
		}
		if err := s.Validate(); err != nil {
			continue
		}
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			w := newHIWalker(s, kind)
			for step := 0; step < 300; step++ {
				if !w.Next() {
					break
				}
				pos := w.Pos()
				var wantVal task.Time
				if kind == dbf.KindDBF {
					wantVal = dbf.SetHIMode(s, pos)
				} else {
					wantVal = dbf.SetADB(s, pos)
				}
				if w.Value() != wantVal {
					t.Fatalf("kind %d: value at %d = %d, want %d\n%s",
						kind, pos, w.Value(), wantVal, s.Table())
				}
				if got, want := w.Slope(), dbf.SetRightSlope(s, kind, pos); got != want {
					t.Fatalf("kind %d: slope at %d = %d, want %d\n%s",
						kind, pos, got, want, s.Table())
				}
			}
		}
	}
}

func BenchmarkWalkerVsDirect(b *testing.B) {
	rnd := rand.New(rand.NewSource(303))
	s := randomSet(rnd, 12, 40)
	b.Run("walker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := newHIWalker(s, dbf.KindDBF)
			for j := 0; j < 500; j++ {
				if !w.Next() {
					break
				}
				_ = w.Value()
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pos := task.Time(0)
			for j := 0; j < 500; j++ {
				next, ok := dbf.SetNextEvent(s, dbf.KindDBF, pos)
				if !ok {
					break
				}
				pos = next
				_ = dbf.SetHIMode(s, pos)
			}
		}
	})
}
