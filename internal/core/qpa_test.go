package core

import (
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// horizonBig is loHorizon for an exact big.Rat U(LO).
func horizonBig(s task.Set, u *big.Rat) int64 {
	return loHorizon(s, dbf.LODemandSum(s), rat.BigSum(u))
}

// TestQPAAgainstDemandWalk: the QPA iteration and the full testing-point
// walk must agree on every random set with U < 1.
func TestQPAAgainstDemandWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(601))
	yes, no := 0, 0
	for iter := 0; iter < 2000; iter++ {
		s := randomSet(rnd, 1+rnd.Intn(5), 30)
		u := new(big.Rat)
		for i := range s {
			u.Add(u, big.NewRat(int64(s[i].WCET[task.LO]), int64(s[i].Period[task.LO])))
		}
		if u.Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		limit := horizonBig(s, u)
		got := qpaLO(s, limit)
		want := demandWalkLO(s, limit)
		if got != want {
			t.Fatalf("QPA = %v, walk = %v for:\n%s", got, want, s.Table())
		}
		if got {
			yes++
		} else {
			no++
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("degenerate corpus: %d schedulable, %d not", yes, no)
	}
}

// TestQPAOnGeneratorSets: agreement on the experiment-scale sets too
// (larger periods, many tasks, shortened deadlines).
func TestQPAOnGeneratorSets(t *testing.T) {
	rnd := rand.New(rand.NewSource(602))
	p := gen.Defaults()
	for iter := 0; iter < 40; iter++ {
		base := p.MustSet(rnd, 0.5+0.4*rnd.Float64())
		// Random uniform deadline shortening stresses constrained
		// deadlines.
		x := rat.New(rnd.Int63n(80)+10, 100)
		s, err := base.ShortenHIDeadlines(x)
		if err != nil {
			continue
		}
		u := new(big.Rat)
		for i := range s {
			u.Add(u, big.NewRat(int64(s[i].WCET[task.LO]), int64(s[i].Period[task.LO])))
		}
		if u.Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		limit := horizonBig(s, u)
		if got, want := qpaLO(s, limit), demandWalkLO(s, limit); got != want {
			t.Fatalf("QPA = %v, walk = %v for generator set:\n%s", got, want, s.Table())
		}
	}
}

func TestQPAKnownCases(t *testing.T) {
	// Colliding tight deadlines: h(5) = 6 > 5.
	tight := task.Set{task.NewLO("a", 20, 5, 3), task.NewLO("b", 20, 5, 3)}
	u := big.NewRat(3, 10)
	if qpaLO(tight, horizonBig(tight, u)) {
		t.Error("QPA accepted an overloaded instant")
	}
	// A single implicit task is always schedulable.
	one := task.Set{task.NewLO("a", 10, 10, 9)}
	u = big.NewRat(9, 10)
	if !qpaLO(one, horizonBig(one, u)) {
		t.Error("QPA rejected a trivially schedulable set")
	}
}

func BenchmarkQPAVsWalk(b *testing.B) {
	rnd := rand.New(rand.NewSource(603))
	p := gen.Defaults()
	var (
		s     task.Set
		u     *big.Rat
		limit int64
	)
	for { // redraw until the LO mode is not saturated
		base := p.MustSet(rnd, 0.85)
		cand, err := base.ShortenHIDeadlines(rat.New(6, 10))
		if err != nil {
			continue
		}
		u = new(big.Rat)
		for i := range cand {
			u.Add(u, big.NewRat(int64(cand[i].WCET[task.LO]), int64(cand[i].Period[task.LO])))
		}
		if u.Cmp(big.NewRat(1, 1)) < 0 {
			s = cand
			break
		}
	}
	limit = horizonBig(s, u)
	b.Run("qpa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qpaLO(s, limit)
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			demandWalkLO(s, limit)
		}
	})
}
