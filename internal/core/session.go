package core

import (
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Session is an analyzed task-set state that absorbs edits and
// re-analyzes incrementally: the interactive "what if" loop of the
// design-space exploration surface, and the engine behind the server's
// /v1/session endpoint. It couples a dbf.SetState (the cached demand
// aggregates, of which an edit drops only those its parameter classes
// feed), a recorded Theorem-2 event curve for value-only C(HI) edits
// (delta.go), a private Scratch arena (so the session's walks are
// allocation-free after the first), and the decisive witness Δ of the
// previous analysis (so the next analysis's Theorem-2 walk starts with a
// near-supremum skip cutoff).
//
// Reports are bit-identical to Analyze on the same set and speed: both
// run the same report body over a state, the curve walk returns the
// canonical walk's payload (delta.go), and the warm witness never changes
// a walk's result (see Options.WarmWitness). The differential and fuzz
// tests pin this.
//
// A Session is not safe for concurrent use; callers serialize access.
type Session struct {
	st      *dbf.SetState
	speed   rat.Rat
	scratch Scratch
	witness task.Time // prior decisive Theorem-2 Δ, 0 before the first analysis
	curve   speedupCurve

	report Report
	fresh  bool // report describes the current state
	cold   bool // the first (cold) analysis has run

	edits, deltas int
}

// NewSession validates the inputs and returns a session whose first
// Report call performs the cold analysis.
func NewSession(s task.Set, speed rat.Rat) (*Session, error) {
	if err := validateSpeed(speed); err != nil {
		return nil, err
	}
	st, err := dbf.NewSetState(s)
	if err != nil {
		return nil, err
	}
	return &Session{st: st, speed: speed}, nil
}

// Set returns the session's current task set (read-only view).
func (ss *Session) Set() task.Set { return ss.st.Tasks() }

// Speed returns the HI-mode speed factor the session analyzes at.
func (ss *Session) Speed() rat.Rat { return ss.speed }

// Fingerprint returns the current set's content address (cached across
// calls until an edit changes the set).
func (ss *Session) Fingerprint() string { return ss.st.Fingerprint() }

// EditsApplied returns the number of edits absorbed so far.
func (ss *Session) EditsApplied() int { return ss.edits }

// DeltaAnalyses returns the number of warm (delta) re-analyses run: every
// Report recomputation after the first, cold one.
func (ss *Session) DeltaAnalyses() int { return ss.deltas }

// Apply absorbs the edits in order, dropping the demand caches each edit
// touches and marking the report stale. Edits apply as a stream: a
// failing edit returns its error with all prior edits applied and the
// session consistent (callers wanting all-or-nothing semantics dry-run
// with task.Set.ApplyEdits first).
func (ss *Session) Apply(edits ...task.Edit) error {
	for i := range edits {
		tc, err := ss.st.Apply(edits[i])
		if err != nil {
			return err
		}
		ss.curve.noteEdit(tc)
		ss.edits++
		ss.fresh = false
	}
	return nil
}

// Report returns the analysis of the current state, re-analyzing only
// when an edit invalidated the previous report. recomputed reports
// whether this call ran the analyses (false on the pure cache hit).
func (ss *Session) Report() (r Report, recomputed bool, err error) {
	if ss.fresh {
		return ss.report, false, nil
	}
	if err := ss.reanalyze(); err != nil {
		return Report{}, false, err
	}
	if ss.cold {
		ss.deltas++
	}
	ss.cold = true
	return ss.report, true, nil
}

// reanalyze runs the report body over the state with the Theorem-2
// result of minSpeedup, cloning the set the state keeps editing.
func (ss *Session) reanalyze() error {
	sp, err := ss.minSpeedup()
	if err != nil {
		return err
	}
	r, err := analyzeState(ss.st, ss.speed, sp, Options{Scratch: &ss.scratch})
	if err != nil {
		return err
	}
	r.Set = r.Set.Clone()
	ss.report = r
	ss.fresh = true
	if sp.WitnessDelta > 0 {
		ss.witness = sp.WitnessDelta
	}
	return nil
}

// minSpeedup runs the Theorem-2 analysis the cheapest sound way
// available: over the session's recorded event curve when the edits since
// recording were value-only (O(examined events), most of them
// block-skipped), otherwise the canonical warm walk; delta.go states when
// the curve is recorded. All paths return bit-identical payloads
// (delta.go proves the curve paths; WarmWitness never changes a result by
// Options' contract).
func (ss *Session) minSpeedup() (SpeedupResult, error) {
	o := Options{Scratch: &ss.scratch, WarmWitness: ss.witness}
	c := &ss.curve
	if !c.valid && c.pending && !c.failed {
		hyper, hyperOK := ss.st.HIHyperperiod()
		c.failed = !hyperOK || !c.record(ss.st.Tasks(), hyper, o)
	}
	c.pending = false
	if c.valid {
		if r, ok := c.walk(ss.st, o); ok {
			return r, nil
		}
		c.valid, c.failed = false, true
	}
	return minSpeedupState(ss.st, o)
}
