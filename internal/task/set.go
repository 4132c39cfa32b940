package task

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"mcspeedup/internal/rat"
)

// Set is an ordered collection of dual-criticality tasks scheduled
// together on one processor.
type Set []Task

// Validate validates every task and checks that names are unique.
// It allocates nothing for typical set sizes: Validate runs on every
// analysis entry point, so design-space searches and the serving layer
// call it thousands of times per query stream.
func (s Set) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("task: empty task set")
	}
	for i := range s {
		if err := s[i].Validate(); err != nil {
			return err
		}
	}
	if len(s) <= 128 {
		// Quadratic name scan: allocation-free and faster than a map up
		// to well past any realistic uniprocessor set size.
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[i].Name == s[j].Name {
					return fmt.Errorf("task: duplicate task name %q", s[i].Name)
				}
			}
		}
		return nil
	}
	seen := make(map[string]bool, len(s))
	for i := range s {
		if seen[s[i].Name] {
			return fmt.Errorf("task: duplicate task name %q", s[i].Name)
		}
		seen[s[i].Name] = true
	}
	return nil
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// ByCrit returns the subset τ_χ of tasks at criticality level c,
// preserving order. The returned slice shares task values (copies),
// so mutating it does not affect s.
func (s Set) ByCrit(c Crit) Set {
	var out Set
	for i := range s {
		if s[i].Crit == c {
			out = append(out, s[i])
		}
	}
	return out
}

// UtilSum returns the exact total utilization Σ_i C_i(m)/T_i(m) of all
// tasks in mode m (terminated tasks contribute zero in HI mode): the
// exact fold behind Util, UtilBounds and UtilCmp when the bracket cannot
// decide them.
func (s Set) UtilSum(m Crit) rat.Sum { return s.utilSum(m, anyTask) }

// utilSum sums C_i(m)/T_i(m) exactly over tasks matching the filter:
// allocation-free while every partial sum fits int64/int64, and pairwise
// in big.Rat after the first overflow (see rat.Folder).
func (s Set) utilSum(m Crit, match func(*Task) bool) rat.Sum {
	var f rat.Folder
	for i := range s {
		if !match(&s[i]) || s[i].Period[m].IsUnbounded() {
			continue
		}
		f.Add(rat.New(int64(s[i].WCET[m]), int64(s[i].Period[m])))
	}
	return f.Sum()
}

// UtilBracket returns the allocation-free bracket of UtilSum(m) (see
// rat.Bracket): the fold the analyses read first.
func (s Set) UtilBracket(m Crit) rat.Bracket { return s.utilBracket(m, anyTask) }

// utilBracket brackets the sum utilSum folds exactly.
func (s Set) utilBracket(m Crit, match func(*Task) bool) rat.Bracket {
	var b rat.Bracket
	for i := range s {
		if !match(&s[i]) || s[i].Period[m].IsUnbounded() {
			continue
		}
		b = b.Plus(int64(s[i].WCET[m]), int64(s[i].Period[m]))
	}
	return b
}

func anyTask(*Task) bool { return true }

// Util returns the total utilization Σ_i C_i(m)/T_i(m) of all tasks in
// mode m. Terminated tasks contribute zero in HI mode. The value is exact
// whenever the reduced fraction's denominator is at most 2^20 (always
// the case for small sets); otherwise it is rounded *up* onto the 2^-20
// grid, so it remains a sound upper bound — use UtilBounds when both
// directions matter. It is rat.FromBig of the exact sum, read from the
// bracket when that decides it and from the exact fold otherwise.
func (s Set) Util(m Crit) rat.Rat {
	if u, ok := s.UtilBracket(m).Round(true); ok {
		return u
	}
	return s.UtilSum(m).Round(true)
}

// UtilBounds returns exact-or-directed-rounded lower and upper bounds on
// Util(m); lo equals hi exactly when the sum is on the 2^-20 grid or has a
// smaller denominator. Both are rat.FromBig of the exact sum, rounded
// down and up.
func (s Set) UtilBounds(m Crit) (lo, hi rat.Rat) {
	if lo, hi, ok := s.UtilBracket(m).Bounds(); ok {
		return lo, hi
	}
	sum := s.UtilSum(m)
	return sum.Round(false), sum.Round(true)
}

// UtilCmp compares the exact utilization Σ_i C_i(m)/T_i(m) with the
// finite r: -1, 0 or +1.
func (s Set) UtilCmp(m Crit, r rat.Rat) int {
	if c, ok := s.UtilBracket(m).Cmp(r); ok {
		return c
	}
	return s.UtilSum(m).Cmp(r)
}

// UtilCrit returns U_χ(m) = Σ_{χ_i = c} C_i(m)/T_i(m): the mode-m
// utilization of the criticality-c subset, the U_χ notation of the
// paper's Figs. 6–7. Like Util it is exact when its denominator is at
// most 2^20 and otherwise rounded up onto the 2^-20 grid.
func (s Set) UtilCrit(c Crit, m Crit) rat.Rat {
	if u, ok := s.utilBracket(m, critIs(c)).Round(true); ok {
		return u
	}
	return s.UtilCritSum(c, m).Round(true)
}

// UtilCritSum returns the exact sum UtilCrit(c, m) rounds.
func (s Set) UtilCritSum(c Crit, m Crit) rat.Sum { return s.utilSum(m, critIs(c)) }

// critIs returns the filter of the criticality-c tasks.
func critIs(c Crit) func(*Task) bool { return func(t *Task) bool { return t.Crit == c } }

// TotalCHI returns Σ_i C_i(HI), the numerator of the closed-form
// resetting-time bound (Lemma 7). Terminated LO tasks still contribute
// their C(HI) = C(LO): their carry-over jobs must finish in HI mode.
func (s Set) TotalCHI() Time {
	var total Time
	for i := range s {
		total += s[i].WCET[HI]
	}
	return total
}

// MaxPeriod returns the largest finite period over both modes.
func (s Set) MaxPeriod() Time {
	var m Time
	for i := range s {
		for _, mode := range []Crit{LO, HI} {
			if p := s[i].Period[mode]; !p.IsUnbounded() && p > m {
				m = p
			}
		}
	}
	return m
}

// --- model transforms (eqs. (3), (13), (14)) ---

// TerminateLO returns a copy in which every LO-criticality task is
// terminated in HI mode (eq. (3)): T(HI) = D(HI) = ∞.
func (s Set) TerminateLO() Set {
	return s.TerminateLOInto(nil)
}

// TerminateLOInto is TerminateLO writing into dst's backing array when
// its capacity suffices (allocating otherwise), for callers that probe
// many candidate sets and want to reuse one buffer. s is never modified;
// the returned slice aliases dst, not s.
func (s Set) TerminateLOInto(dst Set) Set {
	dst = s.cloneInto(dst)
	for i := range dst {
		if dst[i].Crit == LO {
			dst[i].Period[HI] = Unbounded
			dst[i].Deadline[HI] = Unbounded
		}
	}
	return dst
}

// cloneInto copies s into dst's backing array, growing it only when the
// capacity falls short.
func (s Set) cloneInto(dst Set) Set {
	if cap(dst) < len(s) {
		dst = make(Set, len(s))
	} else {
		dst = dst[:len(s)]
	}
	copy(dst, s)
	return dst
}

// ShortenHIDeadlines returns a copy in which every HI-criticality task's
// LO-mode virtual deadline is set to max(C(LO), floor(x·D(HI))), the
// uniform overrun-preparation factor of eq. (13). x must lie in (0, 1);
// values of x that would make some virtual deadline smaller than C(LO)
// are clamped per task (a shorter deadline would be trivially infeasible).
func (s Set) ShortenHIDeadlines(x rat.Rat) (Set, error) {
	return s.ShortenHIDeadlinesInto(nil, x)
}

// ShortenHIDeadlinesInto is ShortenHIDeadlines writing into dst's backing
// array when its capacity suffices (allocating otherwise), for searches
// that probe many factors and want to reuse one buffer. s is never
// modified; the returned slice aliases dst, not s.
func (s Set) ShortenHIDeadlinesInto(dst Set, x rat.Rat) (Set, error) {
	if x.Sign() <= 0 || x.Cmp(rat.One) >= 0 {
		return nil, fmt.Errorf("task: deadline-shortening factor x = %v outside (0,1)", x)
	}
	// ⌊x·D(HI)⌋ = ⌊D(HI) / (1/x)⌋, which FloorDiv takes in 128 bits, so
	// no D(HI) overflows; x < 1 keeps it below D(HI). A D(HI) ≤ 0 has no
	// room whatever its floor, so it skips the division.
	inv := x.Inv()
	out := s.cloneInto(dst)
	for i := range out {
		if out[i].Crit != HI {
			continue
		}
		var d Time
		if dHI := out[i].Deadline[HI]; dHI > 0 {
			d = Time(rat.FloorDiv(int64(dHI), inv))
		}
		if d < out[i].WCET[LO] {
			d = out[i].WCET[LO]
		}
		if d >= out[i].Deadline[HI] {
			d = out[i].Deadline[HI] - 1
		}
		if d <= 0 {
			return nil, fmt.Errorf("task %s: x = %v leaves no room for a virtual deadline (D(HI) = %d)",
				out[i].Name, x, out[i].Deadline[HI])
		}
		out[i].Deadline[LO] = d
	}
	return out, nil
}

// DegradeLO returns a copy in which every LO-criticality task's HI-mode
// service is degraded by the uniform factor y ≥ 1 of eq. (14):
// D(HI) = floor(y·D(LO)) and T(HI) = floor(y·T(LO)).
func (s Set) DegradeLO(y rat.Rat) (Set, error) {
	return s.DegradeLOInto(nil, y)
}

// DegradeLOInto is DegradeLO writing into dst's backing array when its
// capacity suffices (allocating otherwise), for searches that evaluate
// many candidate degradations and want to reuse one buffer. s is never
// modified; the returned slice aliases dst, not s.
func (s Set) DegradeLOInto(dst Set, y rat.Rat) (Set, error) {
	if y.Cmp(rat.One) < 0 {
		return nil, fmt.Errorf("task: degradation factor y = %v < 1", y)
	}
	out := s.cloneInto(dst)
	for i := range out {
		if out[i].Crit != LO {
			continue
		}
		out[i].Deadline[HI] = Time(y.MulInt(int64(out[i].Deadline[LO])).Floor())
		out[i].Period[HI] = Time(y.MulInt(int64(out[i].Period[LO])).Floor())
		// Keep deadlines constrained after rounding.
		if out[i].Deadline[HI] > out[i].Period[HI] {
			out[i].Deadline[HI] = out[i].Period[HI]
		}
	}
	return out, nil
}

// --- serialization ---

// MarshalIndent renders the set as indented JSON.
func (s Set) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseJSON decodes a task set from JSON and validates it. Decoding is
// strict: unknown object fields, negative or fractional times, duplicate
// task names, and trailing garbage are all rejected, so any two JSON
// documents that parse successfully and describe the same system yield
// the same Canonical()/Fingerprint().
func ParseJSON(data []byte) (Set, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Set
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("task: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("task: trailing data after task set")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Table renders the set as a fixed-width text table in the layout of the
// paper's Table I.
func (s Set) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %8s %8s %8s %8s %8s %8s\n",
		"task", "crit", "C(LO)", "C(HI)", "D(LO)", "D(HI)", "T(LO)", "T(HI)")
	cell := func(t Time) string {
		if t.IsUnbounded() {
			return "inf"
		}
		return fmt.Sprintf("%d", int64(t))
	}
	for i := range s {
		t := &s[i]
		fmt.Fprintf(&b, "%-8s %-4s %8s %8s %8s %8s %8s %8s\n",
			t.Name, t.Crit,
			cell(t.WCET[LO]), cell(t.WCET[HI]),
			cell(t.Deadline[LO]), cell(t.Deadline[HI]),
			cell(t.Period[LO]), cell(t.Period[HI]))
	}
	return b.String()
}
