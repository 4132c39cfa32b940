package gen

import (
	"fmt"
	"math"

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
// (see ACET.Draw). Next draws one job; loops that cannot afford its call
// draw with the pieces it is made of, CanOverrun, Overruns,
// OverrunAccepts, Overrun and Band, in the same order, and so draw
// exactly what Next draws.
type TaskACET struct {
	floor, width float64 // the band: floor + width·u for a uniform u
	scale        float64 // float64(C(LO))
	cLO          task.Time
	// canOverrun is false for tasks that cannot overrun (LO criticality,
	// or C(HI) = C(LO)): Next spends no draw on their overrun test.
	canOverrun bool
	// overrun is ⌈p·2^53⌉ for the overrun probability p (see Overruns).
	overrun uint64
	excess  Bound // Int63n(C(HI) − C(LO)), the overrun's excess over C(LO)+1
}

// Draw folds one task's criticality and WCETs into the model. Next on
// the result draws exactly what Sample(rnd, crit, cLO, cHI) draws.
func (a ACET) Draw(crit task.Crit, cLO, cHI task.Time) TaskACET {
	d := TaskACET{floor: a.LOFloor, width: a.LOCeil - a.LOFloor, scale: float64(cLO), cLO: cLO}
	if crit == task.HI {
		d.floor, d.width = a.HIFloor, a.HICeil-a.HIFloor
		if cHI > cLO {
			d.canOverrun = true
			// p·2^53 is exact (a power-of-two scaling), so its ceiling is
			// the least integer not below it.
			d.overrun = uint64(math.Ceil(a.OverrunProb * (1 << 53)))
			d.excess = NewBound(int64(cHI - cLO))
		}
	}
	return d
}

// Next draws one job's ACET from rnd.
func (d *TaskACET) Next(rnd *Stream) task.Time {
	if d.canOverrun && d.Overruns(rnd.Uint64()) {
		v := rnd.Uint64() >> 1
		for !d.OverrunAccepts(v) {
			v = rnd.Uint64() >> 1
		}
		return d.Overrun(v)
	}
	return d.Band(rnd.Uint64())
}

// CanOverrun reports whether a job's draw opens with the overrun test: a
// HI-criticality task with C(HI) > C(LO).
func (d *TaskACET) CanOverrun() bool { return d.canOverrun }

// Overruns is the overrun test on the stream's next Uint64 u: the job
// overruns when u>>11 < ⌈p·2^53⌉. Float64 returns (u>>11)/2^53, and an
// integer lies below p·2^53 exactly when it lies below its ceiling, so
// this is exactly Float64() < p without the conversion.
func (d *TaskACET) Overruns(u uint64) bool { return u>>11 < d.overrun }

// OverrunAccepts and Overrun draw an overrunning job's demand, uniform
// over the integers in (C(LO), C(HI)], as Stream.Below draws it: 63-bit
// draws v = Uint64()>>1 are redrawn until OverrunAccepts(v), and
// Overrun(v) is then the demand.
func (d *TaskACET) OverrunAccepts(v uint64) bool { return d.excess.Accepts(v) }

// Overrun returns the demand of an overrunning job from an accepted
// 63-bit draw v (see OverrunAccepts).
func (d *TaskACET) Overrun(v uint64) task.Time {
	return d.cLO + 1 + task.Time(d.excess.Reduce(v))
}

// Band returns the demand of a job that does not overrun, from the
// stream's next Uint64 u: floor + width·Unit(u) of C(LO), clamped to
// [1, C(LO)].
func (d *TaskACET) Band(u uint64) task.Time {
	v := task.Time((d.floor + d.width*Unit(u)) * d.scale)
	return min(max(v, 1), d.cLO)
}
