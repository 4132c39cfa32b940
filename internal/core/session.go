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
// feed), a private Scratch arena (so the session's walks are
// allocation-free after the first), and the decisive witness Δ of the
// previous analysis (so the next analysis's Theorem-2 walk starts with a
// near-supremum skip cutoff). Every re-analysis runs the same Theorem-2
// walk as Analyze; only the cached aggregates and the warm witness are
// carried across edits.
//
// Reports are bit-identical to Analyze on the same set and speed: both
// run the same report body over a state, and the warm witness never
// changes a walk's result (see Options.WarmWitness). The differential
// and fuzz tests pin this.
//
// A Session is not safe for concurrent use; callers serialize access.
type Session struct {
	st      *dbf.SetState
	speed   rat.Rat
	scratch Scratch
	witness task.Time // prior decisive Theorem-2 Δ, 0 before the first analysis

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
		if err := ss.st.Apply(edits[i]); err != nil {
			return err
		}
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

// reanalyze runs the warm Theorem-2 walk and the report body over the
// state, cloning the set the state keeps editing.
func (ss *Session) reanalyze() error {
	sp, err := minSpeedupState(ss.st, Options{Scratch: &ss.scratch, WarmWitness: ss.witness})
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
