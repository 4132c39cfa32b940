package core

// Differential tests for the incremental (delta) analysis path: a
// Session that absorbs edits and re-analyzes over its warm
// dbf.SetState must produce Reports byte-identical to a cold Analyze of
// the same set at the same speed — MarshalIndent bytes compared, so any
// divergence in any payload field (including witnesses) fails. The same
// discipline as prune_test.go: the warm path may only skip work it has
// proved irrelevant, never change an answer.

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/fms"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// randomEdit proposes a random edit against s — a small perturbation of
// one task parameter (paired where the cross-mode invariants couple
// parameters), an add, or a remove — and validity-filters it through a
// shadow ApplyEdits. ok is false when the proposal happened to violate
// an invariant; callers just retry.
func randomEdit(rnd *rand.Rand, s task.Set, nextName *int) (task.Edit, bool) {
	var e task.Edit
	switch k := rnd.Intn(12); {
	case k == 10: // add a fresh random task
		one := randomSet(rnd, 1, 40)
		tk := one[0]
		tk.Name = fmt.Sprintf("z%02d", *nextName)
		*nextName++
		e = task.Edit{Op: task.OpAdd, Task: &tk}
	case k == 11 && len(s) > 1:
		e = task.Edit{Op: task.OpRemove, Name: s[rnd.Intn(len(s))].Name}
	default:
		tk := s[rnd.Intn(len(s))]
		delta := task.Time(1 + rnd.Int63n(3))
		if rnd.Intn(2) == 0 {
			delta = -delta
		}
		switch rnd.Intn(6) {
		case 0: // C(LO); LO-criticality tasks must keep C(HI) = C(LO)
			v := tk.WCET[task.LO] + delta
			if tk.Crit == task.LO {
				e = task.Edit{Op: task.OpSet, Name: tk.Name, Params: []task.ParamValue{
					{Param: task.ParamCLO, Value: v}, {Param: task.ParamCHI, Value: v}}}
			} else {
				e = task.SetParam(tk.Name, task.ParamCLO, v)
			}
		case 1: // C(HI), HI tasks only (LO tasks pin C(HI) = C(LO))
			if tk.Crit != task.HI {
				return task.Edit{}, false
			}
			e = task.SetParam(tk.Name, task.ParamCHI, tk.WCET[task.HI]+delta)
		case 2: // D(LO) — the virtual-deadline knob
			e = task.SetParam(tk.Name, task.ParamDLO, tk.Deadline[task.LO]+delta)
		case 3: // D(HI); meaningless on terminated tasks
			if tk.Deadline[task.HI] == task.Unbounded {
				return task.Edit{}, false
			}
			e = task.SetParam(tk.Name, task.ParamDHI, tk.Deadline[task.HI]+delta)
		case 4: // T(LO); HI tasks must keep T(HI) = T(LO) (eq. (1))
			v := tk.Period[task.LO] + delta
			if tk.Crit == task.HI {
				e = task.Edit{Op: task.OpSet, Name: tk.Name, Params: []task.ParamValue{
					{Param: task.ParamTLO, Value: v}, {Param: task.ParamTHI, Value: v}}}
			} else {
				e = task.SetParam(tk.Name, task.ParamTLO, v)
			}
		case 5: // T(HI) of a degraded LO task
			if tk.Crit != task.LO || tk.Period[task.HI] == task.Unbounded {
				return task.Edit{}, false
			}
			e = task.SetParam(tk.Name, task.ParamTHI, tk.Period[task.HI]+delta)
		}
	}
	if _, err := s.ApplyEdits(e); err != nil {
		return task.Edit{}, false
	}
	return e, true
}

// deltaSets is the differential corpus: generator sets, their prepared
// variants, and the flight-management set of Fig. 5b.
func deltaSets(t *testing.T) []task.Set {
	sets := prunedSets(t, 8)
	return append(sets, fmsPreparedSet(t))
}

// TestSessionDeltaMatchesColdAnalysis drives random edit streams through
// a Session and asserts after every edit that the incrementally
// re-analyzed Report is byte-identical to a cold Analyze of the same set.
func TestSessionDeltaMatchesColdAnalysis(t *testing.T) {
	for si, s := range deltaSets(t) {
		speed := rat.New(3, 2)
		ss, err := NewSession(s, speed)
		if err != nil {
			t.Fatalf("set %d: NewSession: %v", si, err)
		}
		rnd := rand.New(rand.NewSource(int64(9000 + si)))
		next := 0
		assertMatch := func(step int) {
			t.Helper()
			got, _, err := ss.Report()
			if err != nil {
				t.Fatalf("set %d step %d: session report: %v", si, step, err)
			}
			cold, err := Analyze(ss.Set(), speed)
			if err != nil {
				t.Fatalf("set %d step %d: cold analyze: %v", si, step, err)
			}
			gb, err := got.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			cb, err := cold.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, cb) {
				t.Fatalf("set %d step %d: delta report != cold report\ndelta:\n%s\ncold:\n%s",
					si, step, gb, cb)
			}
		}
		assertMatch(-1) // the first, cold report
		applied := 0
		for try := 0; try < 80 && applied < 10; try++ {
			e, ok := randomEdit(rnd, ss.Set(), &next)
			if !ok {
				continue
			}
			if err := ss.Apply(e); err != nil {
				t.Fatalf("set %d: apply %+v: %v", si, e, err)
			}
			applied++
			assertMatch(try)
		}
		if applied < 5 {
			t.Fatalf("set %d: only %d random edits applied — generator too weak", si, applied)
		}
	}
}

// TestSessionReportLifecycle pins the session bookkeeping: recomputed
// flags, edit and delta counters, and the fingerprint round-trip that
// lets a reverted session hit the same cache entry as the original set
// (the serving layer keys its LRU on this fingerprint).
func TestSessionReportLifecycle(t *testing.T) {
	s := fmsPreparedSet(t)
	fp := s.Fingerprint()
	ss, err := NewSession(s, rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.Fingerprint(); got != fp {
		t.Fatalf("fresh session fingerprint %q != set fingerprint %q", got, fp)
	}
	r1, recomputed, err := ss.Report()
	if err != nil || !recomputed {
		t.Fatalf("first report: recomputed=%v err=%v, want true, nil", recomputed, err)
	}
	if ss.DeltaAnalyses() != 0 {
		t.Fatalf("first (cold) analysis counted as delta: %d", ss.DeltaAnalyses())
	}
	r2, recomputed, err := ss.Report()
	if err != nil || recomputed {
		t.Fatalf("cached report: recomputed=%v err=%v, want false, nil", recomputed, err)
	}
	b1, _ := r1.MarshalIndent()
	b2, _ := r2.MarshalIndent()
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached report differs from the report it caches")
	}

	// Find a HI task whose C(HI) can grow by one, bump it, then revert.
	var name string
	var old task.Time
	for _, tk := range ss.Set() {
		if tk.Crit == task.HI && tk.WCET[task.HI]+1 <= tk.Deadline[task.HI] {
			name, old = tk.Name, tk.WCET[task.HI]
			break
		}
	}
	if name == "" {
		t.Fatal("no HI task with C(HI) headroom in the FMS set")
	}
	if err := ss.Apply(task.SetParam(name, task.ParamCHI, old+1)); err != nil {
		t.Fatal(err)
	}
	if ss.EditsApplied() != 1 {
		t.Fatalf("EditsApplied = %d, want 1", ss.EditsApplied())
	}
	if ss.Fingerprint() == fp {
		t.Fatal("edited session kept the original fingerprint")
	}
	if _, recomputed, err = ss.Report(); err != nil || !recomputed {
		t.Fatalf("post-edit report: recomputed=%v err=%v, want true, nil", recomputed, err)
	}
	if ss.DeltaAnalyses() != 1 {
		t.Fatalf("DeltaAnalyses = %d, want 1", ss.DeltaAnalyses())
	}

	// Reverting the edit must restore the original fingerprint exactly —
	// the property that lets the serving layer reuse the original set's
	// cached report.
	if err := ss.Apply(task.SetParam(name, task.ParamCHI, old)); err != nil {
		t.Fatal(err)
	}
	if got := ss.Fingerprint(); got != fp {
		t.Fatalf("reverted session fingerprint %q != original %q", got, fp)
	}
	r3, _, err := ss.Report()
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := r3.MarshalIndent()
	if !bytes.Equal(b1, b3) {
		t.Fatal("reverted session report differs from the original report")
	}
}

// TestSetStateAggregatesMatchCold holds a SetState under a random edit
// stream and after every edit compares each cached aggregate against a
// freshly constructed state over a clone of the same set and against the
// cold functions the non-incremental entry points call — the "cache
// equals cold recomputation" contract noteChange's invalidation map must
// uphold for every parameter class. Every accessor is read after every
// edit, so each edit meets fully populated caches. The bracketed values
// (utilizations, the closed-form speedup, the LO verdict and its horizon)
// are also checked against the exact rat.Sum folds, on the corpus and on
// a 2000-task coprime-period set whose exact sums all go to big.Rat.
func TestSetStateAggregatesMatchCold(t *testing.T) {
	sets := append(deltaSets(t), coprimeSet(2000), cancellationSet(1000))
	wide := 0      // bracket-decided utilizations whose exact sum is beyond fixed width
	undecided := 0 // utilizations the bracket left to the exact fold
	for si, s := range sets {
		st, err := dbf.NewSetState(s)
		if err != nil {
			t.Fatal(err)
		}
		// verify compares st, after applied edits, with a fresh state and
		// the cold analyses of its tasks, and those with exact sums.
		verify := func(applied int) {
			t.Helper()
			cold := st.Tasks().Clone()
			fresh, err := dbf.NewSetState(cold)
			if err != nil {
				t.Fatalf("set %d: edited set invalid: %v", si, err)
			}
			check := func(what string, got, fromFresh, fromCold any) {
				t.Helper()
				if got != fromFresh || got != fromCold {
					t.Fatalf("set %d after %d edits: %s %v != fresh %v / cold %v", si, applied, what, got, fromFresh, fromCold)
				}
			}
			exactly := func(what string, got, fromExact any) {
				t.Helper()
				if got != fromExact {
					t.Fatalf("set %d after %d edits: %s %v != exact fold %v", si, applied, what, got, fromExact)
				}
			}
			for _, m := range []task.Crit{task.LO, task.HI} {
				exact := exactUtil(cold, m)
				lo, hi := rat.FromBig(exact, false), rat.FromBig(exact, true)
				check("Util", st.Util(m), fresh.Util(m), cold.Util(m))
				exactly("Util", st.Util(m), hi)
				check("UtilBounds", fmt.Sprint(st.UtilBounds(m)), fmt.Sprint(fresh.UtilBounds(m)), fmt.Sprint(cold.UtilBounds(m)))
				exactly("UtilBounds", fmt.Sprint(st.UtilBounds(m)), fmt.Sprint(lo, hi))
				exactly("UtilCmp(1)", cold.UtilCmp(m, rat.One), exact.Cmp(big.NewRat(1, 1)))
				_, decided := cold.UtilBracket(m).Round(true)
				if !exact.Num().IsInt64() || !exact.Denom().IsInt64() {
					if decided {
						wide++
					}
				}
				if !decided {
					undecided++
				}
			}
			closed := rat.PosInf
			if sum, inf := exactSigma(cold); !inf {
				closed = rat.FromBig(sum, true)
			}
			check("closed-form speedup", st.SigmaBound(), fresh.SigmaBound(), ClosedFormSpeedup(cold))
			exactly("closed-form speedup", st.SigmaBound(), closed)
			check("closed-form reset", closedFormResetOf(st.TotalCHI(), rat.Two, st.SigmaBound()),
				closedFormResetOf(fresh.TotalCHI(), rat.Two, fresh.SigmaBound()), ClosedFormReset(cold, rat.Two))
			check("envelope intercept", dbf.CompilePlan(st.Tasks(), dbf.KindDBF).Intercept(),
				dbf.CompilePlan(fresh.Tasks(), dbf.KindDBF).Intercept(), referenceIntercept(cold))
			check("total ΣC(HI)", st.TotalCHI(), fresh.TotalCHI(), cold.TotalCHI())
			check("hyperperiod", fmt.Sprint(st.HIHyperperiod()), fmt.Sprint(fresh.HIHyperperiod()), fmt.Sprint(dbf.HIHyperperiod(cold)))
			check("fingerprint", st.Fingerprint(), fresh.Fingerprint(), cold.Fingerprint())
			loCold, err := SchedulableLO(cold)
			if err != nil {
				t.Fatal(err)
			}
			uLO, demand := rat.BigSum(exactUtil(cold, task.LO)), rat.BigSum(exactLODemand(cold))
			check("LO verdict", st.LOSched(schedulableLO), fresh.LOSched(schedulableLO), loCold)
			exactly("LO verdict", loCold, schedulableLOWithSums(cold, uLO, demand))
			if uLO.Cmp(rat.One) < 0 {
				want := horizonQuotient(demand, uLO)
				if h, ok := rat.HorizonBound(dbf.LODemandBracket(cold), cold.UtilBracket(task.LO)); ok && h < want {
					t.Fatalf("set %d after %d edits: bracket horizon %d below the exact %d", si, applied, h, want)
				}
			}
		}
		verify(0)
		// Each NewSetState and fingerprint of the huge sets is O(n).
		edits := 15
		if len(s) > 100 {
			edits = 4
		}
		rnd := rand.New(rand.NewSource(int64(7000 + si)))
		next := 0
		applied := 0
		for try := 0; try < 120 && applied < edits; try++ {
			e, ok := randomEdit(rnd, st.Tasks(), &next)
			if !ok {
				continue
			}
			if err := st.Apply(e); err != nil {
				t.Fatalf("set %d: apply %+v: %v", si, e, err)
			}
			applied++
			verify(applied)
		}
		if applied < min(8, edits) {
			t.Fatalf("set %d: only %d edits applied", si, applied)
		}
	}
	if wide == 0 {
		t.Fatal("no bracket decided a utilization beyond fixed width")
	}
	if undecided == 0 {
		t.Fatal("no bracket left a utilization to the exact fold")
	}
}

// flipEdits returns the single-parameter edits that move parameter p (C(HI)
// or D(LO)) of the first HI task that accepts it one tick down, and back.
func flipEdits(tb testing.TB, s task.Set, p string) (down, up task.Edit) {
	tb.Helper()
	for _, tk := range s {
		if tk.Crit != task.HI {
			continue
		}
		cur := tk.WCET[task.HI]
		if p == task.ParamDLO {
			cur = tk.Deadline[task.LO]
		}
		down, up = task.SetParam(tk.Name, p, cur-1), task.SetParam(tk.Name, p, cur)
		if _, err := s.ApplyEdits(down); err == nil {
			return down, up
		}
	}
	tb.Fatalf("no HI task takes a %s flip", p)
	return down, up
}

// reportedSession returns a session on s at speed 2 with its cold report
// already taken.
func reportedSession(tb testing.TB, s task.Set) *Session {
	tb.Helper()
	ss, err := NewSession(s, rat.Two)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := ss.Report(); err != nil {
		tb.Fatal(err)
	}
	return ss
}

// editReport applies each edit and takes the report it invalidates.
func editReport(tb testing.TB, ss *Session, edits ...task.Edit) {
	tb.Helper()
	for _, e := range edits {
		if err := ss.Apply(e); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := ss.Report(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSessionEdit measures one single-parameter edit plus the
// report it invalidates, per edit kind — a C(HI) flip and a D(LO) flip,
// both served by the warm Theorem-2 walk — on the prepared FMS set
// (cmd/mcs-bench's SessionDeltaEditFMS and SessionEditDLOFMS rows), the
// unprepared FMS set, and a 12-task random set with a long event
// stream. The prepared-gen case measures the first edits of fresh
// sessions instead of a steady flip: it cycles through MinimalX-prepared
// generator sets, opening a session (untimed) and timing three C(HI)
// edits on each.
func BenchmarkSessionEdit(b *testing.B) {
	raw, err := fms.Tasks(rat.Two)
	if err != nil {
		b.Fatal(err)
	}
	sets := []task.Set{fmsPreparedSet(b), raw, randomSet(rand.New(rand.NewSource(1)), 12, 40)}
	for si, name := range []string{"fms-prepared", "fms", "random12"} {
		for _, p := range []string{task.ParamCHI, task.ParamDLO} {
			b.Run(name+"/"+p, func(b *testing.B) {
				ss := reportedSession(b, sets[si])
				down, up := flipEdits(b, sets[si], p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					editReport(b, ss, [2]task.Edit{down, up}[i%2])
				}
			})
		}
	}
	b.Run("prepared-gen/"+task.ParamCHI, func(b *testing.B) {
		rnd := rand.New(rand.NewSource(7))
		var gens []task.Set
		for len(gens) < 32 {
			if _, prepared, err := MinimalX(gen.Defaults().MustSet(rnd, 0.7)); err == nil {
				gens = append(gens, prepared)
			}
		}
		var ss *Session
		var flips [2]task.Edit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%3 == 0 {
				b.StopTimer()
				s := gens[i/3%len(gens)]
				ss = reportedSession(b, s)
				flips[0], flips[1] = flipEdits(b, s, task.ParamCHI)
				b.StartTimer()
			}
			editReport(b, ss, flips[i%3%2])
		}
	})
}

// FuzzDeltaEquivalence fuzzes the whole delta pipeline: a random set, a
// random edit stream, and after every applied edit the session's
// incrementally re-analyzed Report must be byte-identical to the cold
// analysis of the same set. Divergence in any field — a stale aggregate,
// an unsound warm skip, a fingerprint mismatch — fails the property.
func FuzzDeltaEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(30), uint8(6))
	f.Add(int64(42), uint8(1), uint8(5), uint8(1))
	f.Add(int64(20260805), uint8(5), uint8(80), uint8(8))
	f.Add(int64(-99), uint8(3), uint8(11), uint8(3))
	// A stream of five D(LO)-only edits: every HI-mode cache is kept.
	f.Add(int64(33827), uint8(4), uint8(60), uint8(7))
	// A set whose event stream runs past 65 536 events, with C(HI) edits.
	f.Add(int64(5), uint8(4), uint8(79), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, maxPRaw, editsRaw uint8) {
		rnd := rand.New(rand.NewSource(seed))
		s := randomSet(rnd, 1+int(nRaw%5), 5+int64(maxPRaw%80))
		if s.Validate() != nil {
			t.Skip() // randomSet can emit degenerate tasks for tiny periods
		}
		speed := rat.New(int64(nRaw%30)+10, 10) // 1.0 .. 3.9
		ss, err := NewSession(s, speed)
		if err != nil {
			t.Skip()
		}
		next := 0
		steps := 1 + int(editsRaw%8)
		for step := 0; step < steps; step++ {
			e, ok := randomEdit(rnd, ss.Set(), &next)
			if !ok {
				continue
			}
			if err := ss.Apply(e); err != nil {
				t.Fatalf("step %d: shadow-validated edit rejected: %v", step, err)
			}
			got, _, errS := ss.Report()
			cold, errC := Analyze(ss.Set(), speed)
			if errS != nil || errC != nil {
				// An event-cap error can hit one path before the other
				// (the warm walk legitimately examines fewer events);
				// there is no report to compare then.
				continue
			}
			gb, err := got.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			cb, err := cold.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, cb) {
				t.Fatalf("step %d: delta report != cold report\ndelta:\n%s\ncold:\n%s\n%s",
					step, gb, cb, ss.Set().Table())
			}
		}
	})
}

// coprimeSet returns an n-task set, alternating HI and LO tasks, whose
// periods are the n smallest primes above 10^6 — a huge set whose exact
// utilization sums have denominators near the product of those periods,
// so every exact fold goes to big.Rat. U(LO) ≈ 1/3 and U(HI) ≈ 1/2; HI
// tasks carry the virtual deadline T/2.
func coprimeSet(n int) task.Set {
	s := make(task.Set, 0, n)
	for p := task.Time(1_000_001); len(s) < n; p += 2 {
		prime := true
		for d := task.Time(3); d*d <= p; d += 2 {
			if p%d == 0 {
				prime = false
				break
			}
		}
		if !prime {
			continue
		}
		c := p/task.Time(3*n) + task.Time(len(s)%7)
		name := fmt.Sprintf("t%d", len(s))
		if len(s)%2 == 0 {
			s = append(s, task.NewHI(name, p, p/2, p, c, 2*c))
		} else {
			s = append(s, task.NewLO(name, p, p, c))
		}
	}
	return s
}

// cancellationSet returns 2·pairs tasks whose utilizations cancel in
// pairs, as internal/rat's cancellation sums do: the pair for prime
// period p (near 10^6) is a/p and (c·p − a·d)/(d·p), which add up to c/d
// with d = 4096. U(LO) = Σ c/d, and U(HI) over the HI pairs (C(HI) =
// 2·C(LO)), thus have denominators at most 4096, inside the bracket of
// any inexact sum, so the bracket cannot decide them and the exact fold
// runs. Every first task of a pair precedes every second one, so a
// sequential fold's partial sums grow to a product of a thousand primes
// before they cancel.
func cancellationSet(pairs int) task.Set {
	const d = 4096
	firsts := make(task.Set, 0, pairs)
	seconds := make(task.Set, 0, pairs)
	for p := task.Time(1_000_003); len(firsts) < pairs; p += 2 {
		prime := true
		for q := task.Time(3); q*q <= p; q += 2 {
			if p%q == 0 {
				prime = false
				break
			}
		}
		if !prime {
			continue
		}
		i := task.Time(len(firsts))
		c := 1 + i%3
		a := 1 + i%(c*p/d-1)
		ca, cb, pb := a, c*p-a*d, d*p
		if i%2 == 0 {
			firsts = append(firsts, task.NewLO(fmt.Sprintf("a%d", i), p, p, ca))
			seconds = append(seconds, task.NewLO(fmt.Sprintf("b%d", i), pb, pb, cb))
		} else {
			firsts = append(firsts, task.NewHI(fmt.Sprintf("a%d", i), p, p/2, p, ca, 2*ca))
			seconds = append(seconds, task.NewHI(fmt.Sprintf("b%d", i), pb, pb/2, pb, cb, 2*cb))
		}
	}
	return append(firsts, seconds...)
}

// BenchmarkExactFoldCancellationSet times the exact U(LO) fold the
// brackets fall back to on cancellationSet(1000), whose partial sums
// grow to a product of a thousand primes before they cancel.
func BenchmarkExactFoldCancellationSet(b *testing.B) {
	s := cancellationSet(1000)
	if _, ok := s.UtilBracket(task.LO).Round(true); ok {
		b.Fatal("the bracket decided the cancellation set's U(LO)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UtilSum(task.LO)
	}
}

// treeSum returns the exact sum of terms, added pairwise: the value a
// rat.Sum fold computes, in time near-linear in the terms' total size
// rather than quadratic, so the exact sums of coprimeSet stay cheap.
func treeSum(terms []*big.Rat) *big.Rat {
	if len(terms) == 0 {
		return new(big.Rat)
	}
	for len(terms) > 1 {
		next := terms[:0]
		for i := 0; i < len(terms); i += 2 {
			if i+1 == len(terms) {
				next = append(next, terms[i])
				break
			}
			next = append(next, new(big.Rat).Add(terms[i], terms[i+1]))
		}
		terms = next
	}
	return terms[0]
}

// exactUtil is task.Set.UtilSum(m) as a tree-summed big.Rat.
func exactUtil(s task.Set, m task.Crit) *big.Rat {
	var terms []*big.Rat
	for i := range s {
		if !s[i].Period[m].IsUnbounded() {
			terms = append(terms, big.NewRat(int64(s[i].WCET[m]), int64(s[i].Period[m])))
		}
	}
	return treeSum(terms)
}

// exactLODemand is dbf.LODemandSum as a tree-summed big.Rat.
func exactLODemand(s task.Set) *big.Rat {
	var terms []*big.Rat
	for i := range s {
		ti, di := s[i].Period[task.LO], s[i].Deadline[task.LO]
		terms = append(terms, new(big.Rat).Mul(big.NewRat(int64(ti-di), 1), big.NewRat(int64(s[i].WCET[task.LO]), int64(ti))))
	}
	return treeSum(terms)
}

// exactSigma is dbf.SigmaSum as a tree-summed big.Rat.
func exactSigma(s task.Set) (*big.Rat, bool) {
	var terms []*big.Rat
	for i := range s {
		sigma := dbf.TaskSigma(&s[i])
		if sigma.IsInf() {
			return nil, true
		}
		terms = append(terms, sigma.Big())
	}
	return treeSum(terms), false
}
