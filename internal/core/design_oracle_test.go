package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Brute-force oracle for the design searches. The production searches
// decide their bisection probes with shortcuts — the witness
// certificate, the HI-mode QPA with its walk fallback, and one QPA
// horizon per MinimalX search — and the differential tests compare them
// with reference searches built on the same demand model. The oracle
// here checks the answers against definitions instead: on small integer
// sets it decides feasibility by bruteMinSpeedup (every integer Δ over
// one hyperperiod) and bruteSchedulableLO (every integer Δ over one
// hyperperiod plus the largest deadline), and asserts that each returned
// grid point is feasible while its grid neighbour towards the infeasible
// side is not. Monotonicity of each search's feasibility makes those two
// checks a proof of minimality (or maximality), and each search's error
// must agree with brute force.

// oracleLO is the LO-mode verdict the searches promise: the processor
// demand criterion by brute force, with SchedulableLO's documented
// conservative rejection of U(LO) = 1 sets with a constrained deadline.
func oracleLO(s task.Set) bool {
	if s.Util(task.LO).Eq(rat.One) {
		for i := range s {
			if s[i].Deadline[task.LO] != s[i].Period[task.LO] {
				return false
			}
		}
	}
	return bruteSchedulableLO(s)
}

// oracleMeets reports whether s_min(s) ≤ cap by brute force.
func oracleMeets(s task.Set, cap rat.Rat) bool {
	return bruteMinSpeedup(s).Cmp(cap) <= 0
}

// oracleCorpus is small random sets (n ≤ 4, periods ≤ 12) plus, where
// one exists, their MinimalX preparation — found here by brute force so
// the corpus does not depend on the search under test.
func oracleCorpus(t *testing.T) []task.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(2110))
	var sets []task.Set
	for len(sets) < 1000 {
		s := randomSet(rnd, 1+rnd.Intn(4), 12)
		if err := s.Validate(); err != nil {
			t.Fatalf("generator bug: %v", err)
		}
		sets = append(sets, s)
		if dMax := hiDeadlineMax(s); dMax > 0 {
			for k := int64(1); k < int64(dMax); k++ {
				if prepared, err := s.ShortenHIDeadlines(rat.New(k, int64(dMax))); err == nil && oracleLO(prepared) {
					sets = append(sets, prepared)
					break
				}
			}
		}
	}
	return sets
}

// hiDeadlineMax is the largest HI-mode deadline over the HI tasks, the
// denominator of the x grid (0 without HI tasks).
func hiDeadlineMax(s task.Set) task.Time {
	var dMax task.Time
	for i := range s {
		if s[i].Crit == task.HI && s[i].Deadline[task.HI] > dMax {
			dMax = s[i].Deadline[task.HI]
		}
	}
	return dMax
}

// gridIndex returns k with x = k/d, and whether x lies on that grid.
func gridIndex(x rat.Rat, d task.Time) (int64, bool) {
	k := x.MulInt(int64(d))
	return k.Floor(), k.Floor() == k.Ceil()
}

var oracleCaps = []rat.Rat{rat.One, rat.New(5, 4), rat.New(3, 2), rat.Two}

// checkMinimalX verifies one MinimalX answer against brute force: the
// returned x = k/D_max is LO-feasible with exactly the returned set, and
// (k−1)/D_max is not; an error means even the largest grid point fails.
func checkMinimalX(s task.Set) error {
	x, got, err := MinimalX(s)
	dMax := hiDeadlineMax(s)
	if dMax == 0 {
		if want := oracleLO(s); (err == nil) != want {
			return fmt.Errorf("no HI tasks: MinimalX err %v, brute-force feasible %v", err, want)
		}
		if err == nil && (!x.Eq(rat.One) || got.Table() != s.Table()) {
			return fmt.Errorf("no HI tasks: MinimalX = %v with a changed set", x)
		}
		return nil
	}
	shorten := func(k int64) (task.Set, bool) {
		out, err := s.ShortenHIDeadlines(rat.New(k, int64(dMax)))
		return out, err == nil && oracleLO(out)
	}
	if err != nil {
		if _, ok := shorten(int64(dMax) - 1); ok {
			return fmt.Errorf("MinimalX err %v, but x = %d/%d is brute-force feasible", err, dMax-1, dMax)
		}
		return nil
	}
	k, onGrid := gridIndex(x, dMax)
	if !onGrid || k < 1 || k >= int64(dMax) {
		return fmt.Errorf("MinimalX = %v is off the grid k/%d", x, dMax)
	}
	want, ok := shorten(k)
	if !ok || want.Table() != got.Table() {
		return fmt.Errorf("MinimalX = %v: set brute-force feasible %v, matches ShortenHIDeadlines %v",
			x, ok, want.Table() == got.Table())
	}
	if k > 1 {
		if _, ok := shorten(k - 1); ok {
			return fmt.Errorf("MinimalX = %v, but %d/%d is brute-force feasible", x, k-1, dMax)
		}
	}
	return nil
}

// checkMinimalY verifies one MinimalY answer: y = k/T_max meets the cap
// with exactly DegradeLO(y), and (k−1)/T_max (when ≥ 1) does not. Its
// errors must be the brute-force verdicts on the undegraded set (no LO
// tasks) or the LO-terminated limit.
func checkMinimalY(s task.Set, cap rat.Rat) error {
	y, got, err := MinimalY(s, cap)
	var q task.Time
	for i := range s {
		if s[i].Crit == task.LO && s[i].Period[task.LO] > q {
			q = s[i].Period[task.LO]
		}
	}
	if q == 0 {
		if want := oracleMeets(s, cap); (err == nil) != want {
			return fmt.Errorf("no LO tasks: MinimalY err %v, brute-force meets %v", err, want)
		}
		if err == nil && (!y.Eq(rat.One) || got.Table() != s.Table()) {
			return fmt.Errorf("no LO tasks: MinimalY = %v with a changed set", y)
		}
		return nil
	}
	if err != nil {
		if !oracleMeets(s.TerminateLO(), cap) {
			return nil
		}
		// Termination meets the cap but the search found no finite y
		// up to its 2^20 ceiling: the ceiling's set must miss the cap.
		// Its hyperperiod is out of brute force's reach, so look for a
		// lower bound on s_min above the cap instead: U_HI, or the
		// demand ratio at a small Δ.
		ceil, derr := s.DegradeLO(rat.FromInt64(1 << 20))
		if derr != nil {
			return derr
		}
		if ceil.Util(task.HI).Cmp(cap) > 0 {
			return nil
		}
		for d := task.Time(1); d <= 10_000; d++ {
			if cap.CmpRatio(int64(dbf.SetHIMode(ceil, d)), int64(d)) < 0 {
				return nil
			}
		}
		return fmt.Errorf("MinimalY err %v, but terminating LO tasks meets the cap and y = 2^20 is not shown to miss it", err)
	}
	k, onGrid := gridIndex(y, q)
	if !onGrid || k < int64(q) {
		return fmt.Errorf("MinimalY = %v is off the grid k/%d, k ≥ %d", y, q, q)
	}
	want, derr := s.DegradeLO(y)
	if derr != nil || want.Table() != got.Table() || !oracleMeets(got, cap) {
		return fmt.Errorf("MinimalY = %v: set matches DegradeLO %v, brute-force meets %v",
			y, derr == nil && want.Table() == got.Table(), oracleMeets(got, cap))
	}
	if k > int64(q) {
		prev, derr := s.DegradeLO(rat.New(k-1, int64(q)))
		if derr != nil {
			return derr
		}
		if oracleMeets(prev, cap) {
			return fmt.Errorf("MinimalY = %v, but %d/%d meets the cap", y, k-1, q)
		}
	}
	return nil
}

// checkFeasibleXWindow verifies one FeasibleXWindow answer: XLo is
// MinimalX's x, x = XHi = k/D_max meets the cap and (k+1)/D_max (when
// below 1) does not; the empty-window error means XLo itself misses the
// cap.
func checkFeasibleXWindow(s task.Set, cap rat.Rat) error {
	xLo, xHi, err := FeasibleXWindow(s, cap)
	mx, _, merr := MinimalX(s)
	if merr != nil {
		if err == nil || err.Error() != merr.Error() {
			return fmt.Errorf("FeasibleXWindow err %v, MinimalX err %v", err, merr)
		}
		return nil
	}
	dMax := hiDeadlineMax(s)
	if dMax == 0 {
		if err != nil || !xLo.Eq(mx) || !xHi.Eq(mx) {
			return fmt.Errorf("no HI tasks: window [%v,%v] err %v, want [%v,%v]", xLo, xHi, err, mx, mx)
		}
		return nil
	}
	meets := func(x rat.Rat) bool {
		out, err := s.ShortenHIDeadlines(x)
		return err == nil && oracleMeets(out, cap)
	}
	if err != nil {
		if meets(mx) {
			return fmt.Errorf("FeasibleXWindow err %v, but x = %v meets the cap", err, mx)
		}
		return nil
	}
	if !xLo.Eq(mx) {
		return fmt.Errorf("XLo = %v, MinimalX = %v", xLo, mx)
	}
	k, onGrid := gridIndex(xHi, dMax)
	if !onGrid || xHi.Cmp(xLo) < 0 || k >= int64(dMax) {
		return fmt.Errorf("XHi = %v is off the grid [XLo = %v, %d/%d]", xHi, xLo, dMax-1, dMax)
	}
	if !meets(xHi) {
		return fmt.Errorf("XHi = %v misses the cap by brute force", xHi)
	}
	if next := k + 1; next < int64(dMax) && meets(rat.New(next, int64(dMax))) {
		return fmt.Errorf("XHi = %v, but %d/%d meets the cap", xHi, next, dMax)
	}
	return nil
}

// TestDesignSearchesAgainstBruteForce runs the oracle over the corpus at
// caps {1, 5/4, 3/2, 2}, and requires the corpus to reach both answers
// and errors of every search, and MinimalY's probes to reach the walk
// capProbe.meets falls back to when QPA cannot decide (a cap inside the
// utilization bracket), so that path stays under the oracle.
func TestDesignSearchesAgainstBruteForce(t *testing.T) {
	var xOK, xErr, yOK, yErr, wOK, wErr, walks int
	for i, s := range oracleCorpus(t) {
		if err := checkMinimalX(s); err != nil {
			t.Fatalf("set %d: %v\n%s", i, err, s.Table())
		}
		if _, _, err := MinimalX(s); err == nil {
			xOK++
		} else {
			xErr++
		}
		for _, cap := range oracleCaps {
			if err := checkMinimalY(s, cap); err != nil {
				t.Fatalf("set %d cap %v: %v\n%s", i, cap, err, s.Table())
			}
			if err := checkFeasibleXWindow(s, cap); err != nil {
				t.Fatalf("set %d cap %v: %v\n%s", i, cap, err, s.Table())
			}
			// The same search MinimalY runs, through a probe whose walks
			// the test can count.
			probe := newCapProbe(Options{})
			if _, _, err := minimalY(s, cap, probe); err == nil {
				yOK++
			} else {
				yErr++
			}
			walks += probe.walks
			if _, _, err := FeasibleXWindow(s, cap); err == nil {
				wOK++
			} else {
				wErr++
			}
		}
	}
	for name, n := range map[string]int{
		"MinimalX answers": xOK, "MinimalX errors": xErr,
		"MinimalY answers": yOK, "MinimalY errors": yErr,
		"FeasibleXWindow answers": wOK, "FeasibleXWindow errors": wErr,
		"MinimalY probes decided by the walk": walks,
	} {
		if n == 0 {
			t.Errorf("degenerate corpus: no %s", name)
		}
	}
}

// TestCapProbeMeetsAgainstBruteForce decides s_min ≤ cap with
// capProbe.meets over a dbf.SetState on the oracle corpus, at the oracle
// caps and at caps pressed against the brute-force supremum from both
// sides, where an unsound certificate, QPA step or walk skip one tick
// too generous would flip the decision. One probe serves all of a set's
// caps, so later caps also run against the witness earlier ones left.
func TestCapProbeMeetsAgainstBruteForce(t *testing.T) {
	var walks int
	for i, s := range oracleCorpus(t) {
		sMin := bruteMinSpeedup(s)
		caps := append([]rat.Rat(nil), oracleCaps...)
		if sMin.Sign() > 0 {
			caps = append(caps, sMin, sMin.Sub(rat.New(1, 1<<20)), sMin.Add(rat.New(1, 1<<20)))
		}
		st, err := dbf.NewSetState(s)
		if err != nil {
			t.Fatal(err)
		}
		probe := newCapProbe(Options{})
		for _, cap := range caps {
			if cap.Sign() <= 0 {
				continue
			}
			got, err := probe.meets(st, cap)
			if err != nil {
				t.Fatal(err)
			}
			if want := sMin.Cmp(cap) <= 0; got != want {
				t.Fatalf("set %d cap %v: probe decision %v, brute force s_min = %v\n%s", i, cap, got, sMin, s.Table())
			}
		}
		walks += probe.walks
	}
	if walks == 0 {
		t.Error("degenerate corpus: no probe reached the walk")
	}
}

// TestMinimalYTerminatedUtilAtCap pins set 662 of the oracle corpus at cap
// 1. Its LO-terminated set has U_HI = 2/4 + 2/4 = 1 = cap exactly, and
// every finite y adds Σ_LO C(HI)/⌊y·T⌋ > 0 to it, so s_min > cap for each
// candidate. MinimalY must return the "no finite degradation factor"
// error referenceMinimalY returns, after the termination probe alone, without probing a
// single finite y (the exponential search used to double y to 2^20).
func TestMinimalYTerminatedUtilAtCap(t *testing.T) {
	s := task.Set{
		{Name: "a", Crit: task.LO, Period: [2]task.Time{6, 8}, Deadline: [2]task.Time{5, 5}, WCET: [2]task.Time{3, 3}},
		{Name: "b", Crit: task.HI, Period: [2]task.Time{4, 4}, Deadline: [2]task.Time{1, 3}, WCET: [2]task.Time{1, 2}},
		{Name: "c", Crit: task.LO, Period: [2]task.Time{9, task.Unbounded}, Deadline: [2]task.Time{2, task.Unbounded}, WCET: [2]task.Time{2, 2}},
		{Name: "d", Crit: task.HI, Period: [2]task.Time{4, 4}, Deadline: [2]task.Time{2, 4}, WCET: [2]task.Time{2, 2}},
	}
	if s.TerminateLO().UtilCmp(task.HI, rat.One) != 0 {
		t.Fatal("fixture drifted: the terminated U_HI is not 1")
	}
	probe := newCapProbe(Options{})
	_, _, err := minimalY(s, rat.One, probe)
	// referenceMinimalY returns this error only after its exponential
	// search, which takes most of a second here.
	const want = "core: no finite degradation factor up to 2^20 meets 1"
	if fmt.Sprint(err) != want {
		t.Fatalf("MinimalY err %v, want %q", err, want)
	}
	if probe.decisions+probe.pruned != 1 {
		t.Fatalf("%d decisions and %d certificate rejections, want the termination probe only", probe.decisions, probe.pruned)
	}
}
