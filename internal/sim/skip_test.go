package sim

import (
	"slices"
	"testing"

	"mcspeedup/internal/core"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// overruns reports whether a is an overrunning arrival: a HI job whose
// demand exceeds C(LO).
func overruns(s task.Set, a Arrival) bool {
	return s[a.Task].Crit == task.HI && a.Demand > s[a.Task].WCET[task.LO]
}

// loPrefix models, independently of skipLO, the part of a workload that
// a run of a LO-schedulable set commits before EDF first steps a job. The
// run opens idle in LO mode, so it commits every busy period up to the
// first that holds an overrun, which starts at w[h] (h = len(w) if none
// does). atFinish reports an arrival in w[:h+1] released exactly at the
// finish of the committed busy period before it.
func loPrefix(s task.Set, w Workload) (h int, atFinish bool) {
	start := 0
	var f task.Time
	for k, a := range w {
		if a.At >= f {
			atFinish = atFinish || (k > start && a.At == f)
			start = k
		}
		if overruns(s, a) {
			return start, atFinish
		}
		f = max(f, a.At) + a.Demand
	}
	return len(w), atFinish
}

// dropsOnSkippedAdmission reports whether some degraded LO arrival of the
// run is dropped in HI mode because of an arrival that skipLO committed:
// the task's first arrival at or after w[h] falls inside the run's first
// episode, both ends included (the busy period at w[h] opens it, and an
// arrival at the reset instant is admitted before the reset), and it lies
// less than T(HI) after the task's last arrival in the committed w[:h].
// An episode that tripped its budget drops such arrivals unchecked, so it
// does not count.
func dropsOnSkippedAdmission(s task.Set, w Workload, h int, res *Result) bool {
	if h == len(w) || len(res.Episodes) == 0 || res.Episodes[0].BudgetTripped {
		return false
	}
	e := res.Episodes[0]
	for i := range s {
		if s[i].Crit != task.LO || s[i].Terminated() {
			continue
		}
		last := task.Time(-1)
		for _, a := range w[:h] {
			if a.Task == i {
				last = a.At
			}
		}
		for _, a := range w[h:] {
			if a.Task != i {
				continue
			}
			at := rat.FromInt64(int64(a.At))
			if last >= 0 && a.At-last < s[i].Period[task.HI] &&
				at.Cmp(e.Start) >= 0 && (!e.Ended || at.Cmp(e.End) <= 0) {
				return true
			}
			break
		}
	}
	return false
}

// TestDifferentialCorpusSkipsBusyPeriods guards the differential corpus
// of the busy-period shortcut: its runs with collection off must both
// skip busy periods and hand some back to EDF, and must reach every
// boundary of the shortcut listed below, or a fault there could pass the
// reference comparison unseen.
func TestDifferentialCorpusSkipsBusyPeriods(t *testing.T) {
	cases := workloadCorpus(t)
	for _, f := range fuzzSimSeeds {
		s, w, _ := fuzzInput(f.seed, f.uRaw, f.speedRaw, f.budgetRaw, f.park, f.stop, f.probRaw)
		cases = append(cases, simCase{"fuzz seed", s, w})
	}
	var (
		res Result
		sc  Scratch
	)
	seen := map[string]int{}
	for _, cs := range cases {
		c, err := CompileSet(cs.set)
		if err != nil {
			t.Fatal(err)
		}
		if !c.schedLO {
			continue
		}
		h, atFinish := loPrefix(cs.set, cs.w)
		for _, cfg := range diffConfigs(cs.set) {
			cfg = uncollected(cfg)
			if err := c.RunWorkload(&res, &sc, cs.w, cfg); err != nil {
				t.Fatal(err)
			}
			if sc.skipped < h {
				t.Fatalf("%s: skipLO committed %d jobs, fewer than the %d arrivals before the first overrun's busy period",
					cs.name, sc.skipped, h)
			}
			n := len(cs.w)
			for name, ok := range map[string]bool{
				"skips busy periods":                        sc.skipped > 0,
				"hands busy periods back to EDF":            len(res.Episodes) > 0,
				"release at a busy period's finish":         atFinish,
				"overrun opening a busy period":             h < n && overruns(cs.set, cs.w[h]),
				"overrun as the last arrival":               n > 0 && overruns(cs.set, cs.w[n-1]),
				"empty workload":                            n == 0,
				"degraded arrival dropped by a skipped job": !cfg.StopOnMiss && dropsOnSkippedAdmission(cs.set, cs.w, h, &res),
			} {
				if ok {
					seen[name]++
				}
			}
		}
	}
	for _, name := range []string{
		"skips busy periods", "hands busy periods back to EDF", "release at a busy period's finish",
		"overrun opening a busy period", "overrun as the last arrival", "empty workload",
		"degraded arrival dropped by a skipped job",
	} {
		if seen[name] == 0 {
			t.Errorf("no LO-schedulable run of the differential corpus %s", name)
		}
	}
	t.Logf("runs per case: %v", seen)
}

// TestUnschedulableLOSetSteppedByEDF pins the shortcut's precondition: a
// set that fails core.SchedulableLO misses LO-mode deadlines with no
// overrun at all, so its runs must step every busy period through EDF
// and report the reference's misses, result for result.
func TestUnschedulableLOSetSteppedByEDF(t *testing.T) {
	// Both jobs released at 0 need 4 units by the L deadline at 3.
	s := task.Set{task.NewHI("H", 10, 2, 10, 2, 4), task.NewLO("L", 10, 3, 2)}
	if ok, err := core.SchedulableLO(s); err != nil || ok {
		t.Fatalf("SchedulableLO = %v, %v; the case needs a LO-unschedulable set", ok, err)
	}
	w := SynchronousPeriodic(s, 100, NoOverrun)
	c, err := CompileSet(s)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res Result
		sc  Scratch
	)
	for k, cfg := range diffConfigs(s) {
		cfg = uncollected(cfg)
		want, err := refRun(s, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunWorkload(&res, &sc, w, cfg); err != nil {
			t.Fatal(err)
		}
		if sc.skipped != 0 {
			t.Fatalf("cfg %d: %d jobs committed without EDF on a LO-unschedulable set", k, sc.skipped)
		}
		if len(want.Misses) == 0 || len(want.Episodes) != 0 {
			t.Fatalf("cfg %d: reference has %d misses and %d episodes; the case needs LO-mode misses only",
				k, len(want.Misses), len(want.Episodes))
		}
		assertSameResult(t, "LO-unschedulable", want, &res)
	}
}

// TestSkipLeavesEDFAdmissionState checks the per-task admission state a
// run leaves behind: a run that skips busy periods must end with the seqs
// and lastAdmitted of the same run stepped through EDF. skipLO admits
// jobs as it scans them and takes the seqs of a busy period it hands back
// to EDF out again, so a missing or double correction shows up here even
// where no result field reads the seqs.
func TestSkipLeavesEDFAdmissionState(t *testing.T) {
	var (
		res       Result
		skip, edf Scratch
		handed    int
	)
	for _, cs := range workloadCorpus(t) {
		c, err := CompileSet(cs.set)
		if err != nil {
			t.Fatal(err)
		}
		if !c.schedLO {
			continue
		}
		for _, cfg := range diffConfigs(cs.set) {
			if err := c.RunWorkload(&res, &skip, cs.w, uncollected(cfg)); err != nil {
				t.Fatal(err)
			}
			stepped := uncollected(cfg)
			stepped.CollectJobs = true // collection turns the shortcut off
			if err := c.RunWorkload(&res, &edf, cs.w, stepped); err != nil {
				t.Fatal(err)
			}
			if edf.skipped != 0 {
				t.Fatalf("%s: a collecting run skipped %d jobs", cs.name, edf.skipped)
			}
			// The first hand-back takes seqs out when the busy period at
			// w[h] holds jobs before its first overrun.
			h, _ := loPrefix(cs.set, cs.w)
			if h < len(cs.w) && !overruns(cs.set, cs.w[h]) {
				handed++
			}
			if !slices.Equal(skip.seqs, edf.seqs) || !slices.Equal(skip.lastAdmitted, edf.lastAdmitted) {
				t.Fatalf("%s: skipping run left seqs %v, lastAdmitted %v; EDF left %v, %v",
					cs.name, skip.seqs, skip.lastAdmitted, edf.seqs, edf.lastAdmitted)
			}
		}
	}
	if handed == 0 {
		t.Fatal("no run handed back a busy period with jobs before its overrun")
	}
}
