package dbf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcspeedup/internal/task"
)

// quickTask maps fuzz inputs onto a valid (possibly degraded or
// terminated) task.
func quickTask(p, a, b, c uint16, hi bool, mode uint8) task.Task {
	period := task.Time(p%397) + 3
	cLO := task.Time(a)%(period/2+1) + 1
	if hi {
		cHI := cLO + task.Time(b)%(period-cLO+1)
		dHI := cHI + task.Time(c)%(period-cHI+1)
		if dHI <= cLO {
			dHI = cLO + 1
		}
		dLO := cLO + (task.Time(a^b) % (dHI - cLO))
		if dLO >= dHI {
			dLO = dHI - 1
		}
		return task.NewHI("t", period, dLO, dHI, cLO, cHI)
	}
	dLO := cLO + task.Time(b)%(period-cLO+1)
	tk := task.NewLO("t", period, dLO, cLO)
	switch mode % 3 {
	case 1: // degrade
		tk.Period[task.HI] = period + task.Time(c%200)
		tk.Deadline[task.HI] = dLO + task.Time(a%uint16(tk.Period[task.HI]-dLO+1))
	case 2: // terminate
		tk.Period[task.HI] = task.Unbounded
		tk.Deadline[task.HI] = task.Unbounded
	}
	return tk
}

// TestQuickDBFInvariants: for arbitrary valid tasks and interval lengths,
// the demand curves are non-negative, monotone over a step, dominated by
// their linear envelopes, and ADB dominates DBF.
func TestQuickDBFInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(211))}
	prop := func(p, a, b, c uint16, hi bool, mode uint8, dRaw uint32) bool {
		tk := quickTask(p, a, b, c, hi, mode)
		if tk.Validate() != nil {
			return false
		}
		d := task.Time(dRaw % 5000)
		dv, av := HIMode(&tk, d), ADB(&tk, d)
		if dv < 0 || av < 0 || av < dv {
			return false
		}
		if HIMode(&tk, d+1) < dv || ADB(&tk, d+1) < av {
			return false
		}
		if av > dv+tk.WCET[task.HI] {
			return false
		}
		// LO-mode staircase: monotone, zero before the first deadline.
		if d < tk.Deadline[task.LO] && LOMode(&tk, d) != 0 {
			return false
		}
		return LOMode(&tk, d+1) >= LOMode(&tk, d)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAdvanceClosedForm: the periodic advance closed form
// curve(Δ + k·T) = curve(Δ) + k·C(HI), which the walks' hyperperiod
// stopping rule rests on, holds under direct evaluation
// for arbitrary tasks, offsets and period counts, on both HI-mode curves.
// Terminated tasks have constant curves.
func TestQuickAdvanceClosedForm(t *testing.T) {
	cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(213))}
	eval := func(tk *task.Task, kind Kind, d task.Time) task.Time {
		if kind == KindDBF {
			return HIMode(tk, d)
		}
		return ADB(tk, d)
	}
	prop := func(p, a, b, c uint16, hi bool, mode uint8, dRaw uint16, kRaw uint8) bool {
		tk := quickTask(p, a, b, c, hi, mode)
		if tk.Validate() != nil {
			return false
		}
		k := task.Time(kRaw % 40)
		for _, kind := range []Kind{KindDBF, KindADB} {
			if tk.Terminated() {
				d := task.Time(dRaw)
				if eval(&tk, kind, d+task.Time(kRaw)) != eval(&tk, kind, d) {
					return false
				}
				continue
			}
			d := task.Time(dRaw) % (3 * tk.Period[task.HI])
			if eval(&tk, kind, d)+k*tk.WCET[task.HI] != eval(&tk, kind, d+k*tk.Period[task.HI]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPeriodicityAndEvents: the exact periodicity identity and the
// event-iterator contract (events strictly increase, slopes are 0/1)
// hold for arbitrary tasks.
func TestQuickPeriodicityAndEvents(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2500, Rand: rand.New(rand.NewSource(212))}
	prop := func(p, a, b, c uint16, hi bool, mode uint8, dRaw uint16) bool {
		tk := quickTask(p, a, b, c, hi, mode)
		if tk.Validate() != nil || tk.Terminated() {
			return true // terminated curves are constant; covered elsewhere
		}
		period := tk.Period[task.HI]
		d := task.Time(dRaw) % (3 * period)
		if HIMode(&tk, d+period) != HIMode(&tk, d)+tk.WCET[task.HI] {
			return false
		}
		if ADB(&tk, d+period) != ADB(&tk, d)+tk.WCET[task.HI] {
			return false
		}
		for _, kind := range []Kind{KindDBF, KindADB} {
			next, ok := NextEvent(&tk, kind, d)
			if !ok || next <= d {
				return false
			}
			if s := RightSlope(&tk, kind, d); s != 0 && s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
