package gen

import (
	"fmt"

	"mcspeedup/internal/task"
)

// ACET is a per-job actual-execution-time model, in the style of the
// eeft_sched exemplar: each job draws its ACET by criticality band as a
// fraction of the task's C(LO) budget, and HI-criticality jobs overrun
// into (C(LO), C(HI)] with a configured probability. The fleet engine
// samples one ACET per released job, so mode switches, episode lengths,
// and budget trips become empirical distributions instead of the single
// deterministic trace internal/sim's canned workloads produce.
type ACET struct {
	// LOFloor/LOCeil bound a LO-criticality job's ACET as a fraction of
	// its task's C(LO): the draw is uniform in [LOFloor, LOCeil]·C(LO),
	// clamped to [1, C(LO)].
	LOFloor, LOCeil float64
	// HIFloor/HICeil bound a non-overrunning HI-criticality job's ACET
	// the same way.
	HIFloor, HICeil float64
	// OverrunProb is the per-job probability that a HI-criticality job
	// exceeds C(LO); its demand is then uniform over the integers in
	// (C(LO), C(HI)]. Tasks with C(HI) = C(LO) cannot overrun and fall
	// back to the non-overrun band.
	OverrunProb float64
}

// DefaultACET is the model the fleet experiments use: LO jobs run
// 20–100 % of C(LO), HI jobs 30–100 %, and one HI job in a thousand
// overruns — rare enough that mode switches are episodic, frequent
// enough that a 100k-run fleet observes thousands of them.
func DefaultACET() ACET {
	return ACET{LOFloor: 0.2, LOCeil: 1, HIFloor: 0.3, HICeil: 1, OverrunProb: 0.001}
}

// IsZero reports whether a is the zero value (callers substitute
// DefaultACET).
func (a ACET) IsZero() bool { return a == ACET{} }

// Validate checks the band bounds.
func (a ACET) Validate() error {
	check := func(name string, floor, ceil float64) error {
		if !(floor >= 0 && ceil >= floor && ceil <= 1) {
			return fmt.Errorf("gen: ACET %s band [%g, %g] outside 0 <= floor <= ceil <= 1", name, floor, ceil)
		}
		return nil
	}
	if err := check("LO", a.LOFloor, a.LOCeil); err != nil {
		return err
	}
	if err := check("HI", a.HIFloor, a.HICeil); err != nil {
		return err
	}
	if a.OverrunProb < 0 || a.OverrunProb > 1 {
		return fmt.Errorf("gen: ACET overrun probability %g outside [0, 1]", a.OverrunProb)
	}
	return nil
}

// Sample draws one job's ACET from the band for crit, given the task's
// per-mode WCETs, consuming the stream. The result is always a valid sim
// demand: at least 1, at most C(LO) for non-overruns and at most C(HI)
// for overruns. It is a.Draw(crit, cLO, cHI).Next(rnd); loops drawing
// many jobs of one task should keep the TaskACET.
func (a ACET) Sample(rnd *Stream, crit task.Crit, cLO, cHI task.Time) task.Time {
	d := a.Draw(crit, cLO, cHI)
	return d.Next(rnd)
}

// TaskACET is an ACET model with one task's band constants folded in
// (see ACET.Draw).
type TaskACET struct {
	floor, width float64 // the band: floor + width·u for a uniform u
	scale        float64 // float64(C(LO))
	cLO          task.Time
	// canOverrun is false for tasks that cannot overrun (LO criticality,
	// or C(HI) = C(LO)): Next spends no draw on their overrun test.
	canOverrun bool
	overrun    float64 // the overrun probability
	cHI        task.Time
}

// Draw folds one task's criticality and WCETs into the model. Next on
// the result draws exactly what Sample(rnd, crit, cLO, cHI) draws.
func (a ACET) Draw(crit task.Crit, cLO, cHI task.Time) TaskACET {
	d := TaskACET{floor: a.LOFloor, width: a.LOCeil - a.LOFloor, scale: float64(cLO), cLO: cLO, cHI: cHI}
	if crit == task.HI {
		d.floor, d.width = a.HIFloor, a.HICeil-a.HIFloor
		d.canOverrun, d.overrun = cHI > cLO, a.OverrunProb
	}
	return d
}

// Next draws one job's ACET from rnd.
func (d *TaskACET) Next(rnd *Stream) task.Time {
	if d.canOverrun && rnd.Float64() < d.overrun {
		// Overrun: uniform over the integers in (C(LO), C(HI)].
		return d.cLO + 1 + task.Time(rnd.Int63n(int64(d.cHI-d.cLO)))
	}
	f := d.floor + d.width*rnd.Float64()
	v := task.Time(f * d.scale)
	if v < 1 {
		v = 1
	}
	if v > d.cLO {
		v = d.cLO
	}
	return v
}
