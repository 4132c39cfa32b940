package task

import (
	"fmt"
)

// Edit operations. An edit stream is the unit of incremental re-analysis:
// the dbf.SetState layer consumes edits one at a time and drops only the
// cached demand aggregates the edited parameter classes feed.
const (
	// OpSet changes one or more timing parameters of the named task.
	OpSet = "set"
	// OpAdd appends a new task.
	OpAdd = "add"
	// OpRemove deletes the named task.
	OpRemove = "remove"
)

// Parameter names for OpSet edits. They follow the paper's notation:
// cLO is C(LO), dHI is D(HI), tLO is T(LO), and so on.
const (
	ParamCLO = "cLO"
	ParamCHI = "cHI"
	ParamDLO = "dLO"
	ParamDHI = "dHI"
	ParamTLO = "tLO"
	ParamTHI = "tHI"
)

// ParamValue is one parameter assignment inside an OpSet edit.
type ParamValue struct {
	Param string `json:"param"`
	Value Time   `json:"value"`
}

// Edit is one task-set modification in descriptor form: the unit of the
// /v1/session edit stream and of dbf.SetState's cache invalidation.
//
// An OpSet edit applies all its Params atomically — the task is copied,
// every assignment lands on the copy (in list order, later entries win),
// and the copy is validated once before it replaces the original — so a
// single edit can move parameter pairs whose intermediate states would be
// invalid (e.g. a LO task's D(HI) and T(HI) together, or termination's
// two simultaneous ∞ values).
type Edit struct {
	// Op is OpSet, OpAdd, or OpRemove.
	Op string `json:"op"`
	// Name identifies the task for OpSet and OpRemove.
	Name string `json:"name,omitempty"`
	// Task is the full task to append for OpAdd.
	Task *Task `json:"task,omitempty"`
	// Params are the parameter assignments for OpSet.
	Params []ParamValue `json:"params,omitempty"`
}

// SetParam builds a single-parameter OpSet edit.
func SetParam(name, param string, v Time) Edit {
	return Edit{Op: OpSet, Name: name, Params: []ParamValue{{Param: param, Value: v}}}
}

// Touched describes an edit's impact: which parameter classes moved.
// dbf.SetState invalidates only the cached aggregates a flagged class
// feeds.
type Touched struct {
	// CLO .. THI report which parameters actually changed value (all six
	// are set for structural edits: an add or a remove). An OpSet that
	// rewrites a parameter to its current value touches nothing.
	CLO, CHI, DLO, DHI, TLO, THI bool
}

// structural is the impact of an add or a remove: every class moves.
var structural = Touched{CLO: true, CHI: true, DLO: true, DHI: true, TLO: true, THI: true}

// Any reports whether the edit changed anything at all.
func (tc Touched) Any() bool {
	return tc.CLO || tc.CHI || tc.DLO || tc.DHI || tc.TLO || tc.THI
}

// index returns the position of the named task, or -1.
func (s Set) index(name string) int {
	for i := range s {
		if s[i].Name == name {
			return i
		}
	}
	return -1
}

// applyParam assigns one parameter on t.
func applyParam(t *Task, p ParamValue) error {
	switch p.Param {
	case ParamCLO:
		t.WCET[LO] = p.Value
	case ParamCHI:
		t.WCET[HI] = p.Value
	case ParamDLO:
		t.Deadline[LO] = p.Value
	case ParamDHI:
		t.Deadline[HI] = p.Value
	case ParamTLO:
		t.Period[LO] = p.Value
	case ParamTHI:
		t.Period[HI] = p.Value
	default:
		return fmt.Errorf("task: unknown edit parameter %q", p.Param)
	}
	return nil
}

// ApplyTo applies the edit to s in place (OpAdd may grow the backing
// array) and reports its impact. The edited task is validated before the
// set is touched, so a returned error leaves s unchanged; set-level
// invariants (unique names, non-empty set) are enforced here as well,
// which keeps every edited set exactly as valid as a freshly parsed one —
// and therefore keeps Canonical()/Fingerprint() well-defined on it.
//
// Callers that must not mutate s use Set.ApplyEdits instead.
func (e Edit) ApplyTo(s Set) (Set, Touched, error) {
	switch e.Op {
	case OpSet:
		if e.Task != nil {
			return s, Touched{}, fmt.Errorf("task: %s edit must not carry a task object", OpSet)
		}
		if len(e.Params) == 0 {
			return s, Touched{}, fmt.Errorf("task: %s edit for %q has no params", OpSet, e.Name)
		}
		idx := s.index(e.Name)
		if idx < 0 {
			return s, Touched{}, fmt.Errorf("task: edit names unknown task %q", e.Name)
		}
		old := &s[idx]
		nt := *old
		for _, p := range e.Params {
			if err := applyParam(&nt, p); err != nil {
				return s, Touched{}, err
			}
		}
		if err := nt.Validate(); err != nil {
			return s, Touched{}, err
		}
		tc := Touched{
			CLO: old.WCET[LO] != nt.WCET[LO],
			CHI: old.WCET[HI] != nt.WCET[HI],
			DLO: old.Deadline[LO] != nt.Deadline[LO],
			DHI: old.Deadline[HI] != nt.Deadline[HI],
			TLO: old.Period[LO] != nt.Period[LO],
			THI: old.Period[HI] != nt.Period[HI],
		}
		*old = nt
		return s, tc, nil
	case OpAdd:
		if e.Task == nil {
			return s, Touched{}, fmt.Errorf("task: %s edit has no task object", OpAdd)
		}
		if len(e.Params) > 0 || e.Name != "" {
			return s, Touched{}, fmt.Errorf("task: %s edit must carry only a task object", OpAdd)
		}
		nt := *e.Task
		if err := nt.Validate(); err != nil {
			return s, Touched{}, err
		}
		if s.index(nt.Name) >= 0 {
			return s, Touched{}, fmt.Errorf("task: duplicate task name %q", nt.Name)
		}
		return append(s, nt), structural, nil
	case OpRemove:
		if e.Task != nil || len(e.Params) > 0 {
			return s, Touched{}, fmt.Errorf("task: %s edit must carry only a name", OpRemove)
		}
		idx := s.index(e.Name)
		if idx < 0 {
			return s, Touched{}, fmt.Errorf("task: edit names unknown task %q", e.Name)
		}
		if len(s) == 1 {
			return s, Touched{}, fmt.Errorf("task: cannot remove the last task (empty sets are invalid)")
		}
		copy(s[idx:], s[idx+1:])
		return s[:len(s)-1], structural, nil
	default:
		return s, Touched{}, fmt.Errorf("task: unknown edit op %q", e.Op)
	}
}

// ApplyEdits applies the edits in order to a copy of s and returns the
// result; s itself is never modified. The first failing edit aborts with
// its error and nothing is returned, making the whole stream atomic —
// the convenience form for callers (the /v1/session handler) that need
// all-or-nothing semantics on top of the single-edit ApplyTo.
func (s Set) ApplyEdits(edits ...Edit) (Set, error) {
	out := s.Clone()
	for i := range edits {
		var err error
		out, _, err = edits[i].ApplyTo(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
