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

// capOracle checks one qpaHI decision of s_min ≤ cap, under the directed
// utilization bounds uLo ≤ U_HI ≤ uHi, against the brute-force supremum
// smin and the exact Theorem-2 walk, and returns the decision. It fails
// the test on a wrong answer, on a decision taken where QPA must not
// apply (uLo ≤ cap ≤ uHi) or refused where it must (uLo > cap), and on a
// witness whose ratio contradicts the answer.
func capOracle(t testing.TB, s task.Set, smin, cap, uLo, uHi rat.Rat, maxIter int) (meets, decided bool) {
	t.Helper()
	plan := dbf.CompilePlan(s, dbf.KindDBF)
	meets, decided, witness := qpaHI(plan, cap, uLo, uHi, maxIter)
	switch {
	case uLo.Cmp(cap) > 0:
		if !decided || meets {
			t.Fatalf("cap %v below uLo %v: decided %v meets %v, want a reject\n%s", cap, uLo, decided, meets, s.Table())
		}
	case cap.Cmp(uHi) <= 0:
		if decided {
			t.Fatalf("cap %v within [%v, %v] decided (meets %v)\n%s", cap, uLo, uHi, meets, s.Table())
		}
	}
	if !decided {
		return false, false
	}
	if want := smin.Cmp(cap) <= 0; meets != want {
		t.Fatalf("qpaHI(cap %v) = %v, brute-force s_min %v\n%s", cap, meets, smin, s.Table())
	}
	walk, err := MinSpeedupOpts(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := walk.Speedup.Cmp(cap) <= 0; !walk.Exact || meets != want {
		t.Fatalf("qpaHI(cap %v) = %v, walk %+v\n%s", cap, meets, walk, s.Table())
	}
	if witness > 0 {
		above := cap.CmpRatio(int64(plan.Value(witness)), int64(witness)) < 0
		if above == meets {
			t.Fatalf("qpaHI(cap %v) = %v with witness %d of ratio %d/%d\n%s",
				cap, meets, witness, plan.Value(witness), witness, s.Table())
		}
	}
	return meets, true
}

// capCases returns the caps the differential probes for a set with
// supremum smin and HI-mode utilization u: s_min itself (a tangent
// point, where ΣDBF_HI(t) = cap·t at the witness), s_min ± 1/den (den
// its own denominator), U_HI plus 2^-41 (a start point t₀ = ⌊B·2^41⌋
// beyond skipHorizon whenever the intercept B is positive, so QPA must
// defer to the walk) and U_HI plus 1/7, skipping caps that are not
// positive or not representable.
func capCases(smin, u rat.Rat) []rat.Rat {
	step := rat.New(1, smin.Den())
	var caps []rat.Rat
	for _, c := range []struct {
		base, delta rat.Rat
	}{
		{smin, rat.Zero}, {smin, step}, {smin, step.Neg()},
		{u, rat.New(1, 1<<41)}, {u, rat.New(1, 7)},
	} {
		if cap, ok := c.base.AddChecked(c.delta); ok && cap.Sign() > 0 {
			caps = append(caps, cap)
		}
	}
	return caps
}

// TestCapDecisionAgainstBruteForce is the differential of the HI-mode
// QPA: on random small sets (LO, degraded, terminated and HI tasks) and
// on all-terminated sets, every decision at the capCases caps must match
// the brute-force supremum and the exact walk, with the exact utilization
// as both bounds, with an artificial bracket around it (so caps inside
// the bracket must defer and caps just above it must decide), and with a
// tiny iteration budget (which may defer but never err).
func TestCapDecisionAgainstBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(1019))
	var tally struct{ accept, reject, tangent, deferred, terminated int }
	for iter := 0; iter < 1500; iter++ {
		var s task.Set
		if iter%25 == 0 {
			s = randomSet(rnd, 1+rnd.Intn(3), 20)
			for i := range s {
				s[i] = task.NewLO(s[i].Name, s[i].Period[task.LO], s[i].Period[task.LO], s[i].WCET[task.LO])
				s[i].Period[task.HI], s[i].Deadline[task.HI] = task.Unbounded, task.Unbounded
			}
			tally.terminated++
		} else {
			s = randomSet(rnd, 1+rnd.Intn(4), 3+rnd.Int63n(30))
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generator bug: %v", err)
		}
		smin, u := bruteMinSpeedup(s), s.Util(task.HI)
		for _, cap := range capCases(smin, u) {
			meets, decided := capOracle(t, s, smin, cap, u, u, 1_000_000)
			switch {
			case !decided:
				tally.deferred++
			case meets && cap.Eq(smin) && smin.Cmp(u) > 0:
				tally.tangent++
			case meets:
				tally.accept++
			default:
				tally.reject++
			}
			w := rat.New(1, 1+rnd.Int63n(64))
			capOracle(t, s, smin, cap, rat.Max(u.Sub(w), rat.Zero), u.Add(w), 1_000_000)
			capOracle(t, s, smin, cap, u, u, 1+rnd.Intn(3))
		}
	}
	t.Logf("%+v", tally)
	if tally.accept == 0 || tally.reject == 0 || tally.tangent == 0 || tally.deferred == 0 || tally.terminated == 0 {
		t.Fatalf("degenerate corpus: %+v", tally)
	}
}

// FuzzCapDecision drives capOracle over fuzzer-chosen sets, caps and
// bounds: the cap is one of capCases or an arbitrary rational in (0, 5],
// the bounds the exact utilization or a bracket around it, and the
// iteration budget full or tiny.
func FuzzCapDecision(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(0), uint16(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(5), uint8(1), uint16(7), uint8(3))
	f.Add(int64(20261019), uint8(4), uint8(60), uint8(3), uint16(999), uint8(17))
	f.Add(int64(-7), uint8(2), uint8(29), uint8(5), uint16(31), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, capMode uint8, capRaw uint16, boundRaw uint8) {
		rnd := rand.New(rand.NewSource(seed))
		s := randomSet(rnd, 1+int(nRaw%4), 3+int64(maxPRaw%40))
		if s.Validate() != nil {
			t.Skip()
		}
		smin, u := bruteMinSpeedup(s), s.Util(task.HI)
		caps := capCases(smin, u)
		cap := rat.New(int64(capRaw%500)+1, 100)
		if int(capMode) < 2*len(caps) {
			cap = caps[int(capMode)%len(caps)]
		}
		uLo, uHi := u, u
		if boundRaw%2 == 1 {
			w := rat.New(1, int64(boundRaw/2)+1)
			uLo, uHi = rat.Max(u.Sub(w), rat.Zero), u.Add(w)
		}
		maxIter := 1_000_000
		if boundRaw%3 == 0 {
			maxIter = 1 + int(boundRaw%5)
		}
		capOracle(t, s, smin, cap, uLo, uHi, maxIter)
	})
}

// demandWalkLO is the straightforward processor-demand walk over every
// testing point (the pre-QPA implementation), the differential oracle for
// qpaLO.
func demandWalkLO(s task.Set, limit int64) bool {
	var h eventHeap
	for i := range s {
		h.append(s[i].Deadline[task.LO], i)
	}
	h.heapify()
	var demand task.Time
	for h.Len() > 0 {
		next := h.times[0]
		if int64(next) > limit {
			return true
		}
		for h.Len() > 0 && h.times[0] == next {
			i := h.tasks[0]
			demand += s[i].WCET[task.LO]
			h.replaceTop(next+s[i].Period[task.LO], i)
		}
		if demand > next {
			return false
		}
	}
	return true
}
