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

// TestProbeScreenBelowValue: the Theorem-2 walk's O(1) probe screen
// rejects a skip probe b > next when the left limit at the next event,
// Value + Slope·(next − Pos), exceeds the certificate threshold. That is
// sound only if the left limit never exceeds Plan.Value(b) for any
// b ≥ next; check it at walker positions reached by both Next and
// SkipTo, for both curve kinds, on random and sweep-shaped sets.
func TestProbeScreenBelowValue(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	sets := []task.Set{}
	for i := 0; i < 150; i++ {
		sets = append(sets, randomSet(rnd, 1+rnd.Intn(6), 40))
	}
	for i := 0; i < 20; i++ {
		sets = append(sets, sweepShapedSet(t, 2, i))
	}
	checked := 0
	for _, s := range sets {
		for _, kind := range []dbf.Kind{dbf.KindDBF, dbf.KindADB} {
			w := newHIWalker(s, kind)
			maxT := task.Time(1)
			for i := range s {
				if !s[i].Terminated() && s[i].Period[task.HI] > maxT {
					maxT = s[i].Period[task.HI]
				}
			}
			for step := 0; step < 60; step++ {
				if rnd.Intn(4) == 0 {
					w.SkipTo(w.Pos() + 1 + task.Time(rnd.Int63n(int64(4*maxT))))
				} else if !w.Next() {
					break
				}
				next, ok := w.PeekNext()
				if !ok {
					break
				}
				bound := w.Value() + w.Slope()*(next-w.Pos())
				for j := 0; j < 8; j++ {
					b := next + task.Time(rnd.Int63n(int64(3*maxT)))
					if v := w.Plan().Value(b); bound > v {
						t.Fatalf("kind %d: screen bound %d at pos %d (next %d) exceeds Value(%d) = %d\n%s",
							kind, bound, w.Pos(), next, b, v, s.Table())
					}
					checked++
				}
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d screen checks ran", checked)
	}
}

// TestHeapifyLinear counts the sift steps of eventHeap.heapify, one per
// node visit during a sift-down, against the linear bound of the
// bottom-up build: each of the ⌊n/2⌋ inner nodes costs one step plus one
// per level it descends, and the node heights of an n-entry heap sum to
// less than n, so a build takes at most ⌊n/2⌋ + n steps. Results alone
// cannot catch a quadratic build — it still returns a valid heap — so
// the step count is what this pins, on descending keys (every node sifts
// to the bottom), ascending keys, ties and random keys.
func TestHeapifyLinear(t *testing.T) {
	rnd := rand.New(rand.NewSource(8000))
	orders := map[string]func(i, n int) task.Time{
		"descending": func(i, n int) task.Time { return task.Time(n - i) },
		"ascending":  func(i, n int) task.Time { return task.Time(i) },
		"ties":       func(i, n int) task.Time { return task.Time(i % 3) },
		"random":     func(i, n int) task.Time { return task.Time(rnd.Int63n(1 << 20)) },
	}
	for name, key := range orders {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1023, 4096, 8000} {
			var h eventHeap
			h.reset(n)
			for i := 0; i < n; i++ {
				h.append(key(i, n), i)
			}
			steps := h.heapify()
			if limit := n/2 + n; steps > limit {
				t.Errorf("%s n=%d: heapify took %d sift steps, linear bound %d", name, n, steps, limit)
			}
			for i := 1; i < n; i++ {
				if h.times[(i-1)/2] > h.times[i] {
					t.Fatalf("%s n=%d: heap order broken at %d", name, n, i)
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
