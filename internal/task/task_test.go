package task

import (
	"encoding/json"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"mcspeedup/internal/rat"
)

func validHI() Task { return NewHI("h", 10, 5, 10, 2, 4) }
func validLO() Task { return NewLO("l", 10, 10, 3) }

func TestValidateAccepts(t *testing.T) {
	for _, tk := range []Task{validHI(), validLO()} {
		if err := tk.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", tk.String(), err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Task)
		base   Task
		substr string
	}{
		{"zero period", func(tk *Task) { tk.Period[LO] = 0 }, validHI(), "positive"},
		{"negative wcet", func(tk *Task) { tk.WCET[HI] = -1 }, validHI(), "positive"},
		{"deadline exceeds period", func(tk *Task) { tk.Deadline[HI] = 11 }, validHI(), "constrained"},
		{"wcet exceeds deadline", func(tk *Task) { tk.WCET[LO] = 6 }, validHI(), "infeasible"},
		{"HI periods differ", func(tk *Task) { tk.Period[HI] = 9; tk.Deadline[HI] = 9 }, validHI(), "T(HI) = T(LO)"},
		{"HI virtual deadline not shortened", func(tk *Task) { tk.Deadline[LO] = 10 }, validHI(), "D(LO) < D(HI)"},
		{"HI wcet decreases", func(tk *Task) { tk.WCET[HI] = 1 }, validHI(), "C(HI) >= C(LO)"},
		{"LO wcet changes across modes", func(tk *Task) { tk.WCET[HI] = 4 }, validLO(), "C(HI) = C(LO)"},
		{"LO period shrinks in HI mode", func(tk *Task) { tk.Period[HI] = 5; tk.Deadline[HI] = 5 }, validLO(), "T(HI) >= T(LO)"},
		{"LO deadline shrinks in HI mode", func(tk *Task) { tk.Deadline[HI] = 5 }, validLO(), "D(HI) >= D(LO)"},
		{"half-terminated", func(tk *Task) { tk.Period[HI] = Unbounded }, validLO(), "termination"},
		{"unbounded wcet", func(tk *Task) { tk.WCET[LO] = Unbounded; tk.WCET[HI] = Unbounded }, validLO(), "finite"},
	}
	for _, c := range cases {
		tk := c.base
		c.mutate(&tk)
		err := tk.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, tk.String())
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
}

func TestTerminatedTaskValidates(t *testing.T) {
	set := Set{validHI(), validLO()}.TerminateLO()
	if err := set.Validate(); err != nil {
		t.Fatalf("terminated set invalid: %v", err)
	}
	if !set[1].Terminated() {
		t.Error("LO task not marked terminated")
	}
	if set[0].Terminated() {
		t.Error("HI task marked terminated")
	}
	if got := set[1].Util(HI); !got.IsZero() {
		t.Errorf("terminated task Util(HI) = %v, want 0", got)
	}
}

func TestUtilizations(t *testing.T) {
	s := Set{
		NewHI("h1", 10, 5, 10, 2, 4), // U(LO)=1/5, U(HI)=2/5
		NewLO("l1", 20, 20, 5),       // U=1/4 both modes
	}
	if got := s.Util(LO); !got.Eq(rat.New(9, 20)) {
		t.Errorf("Util(LO) = %v, want 9/20", got)
	}
	if got := s.Util(HI); !got.Eq(rat.New(13, 20)) {
		t.Errorf("Util(HI) = %v, want 13/20", got)
	}
	if got := s.UtilCrit(HI, LO); !got.Eq(rat.New(1, 5)) {
		t.Errorf("UtilCrit(HI, LO) = %v, want 1/5", got)
	}
	if got := s.UtilCrit(LO, HI); !got.Eq(rat.New(1, 4)) {
		t.Errorf("UtilCrit(LO, HI) = %v, want 1/4", got)
	}
	if got := s.TotalCHI(); got != 9 {
		t.Errorf("TotalCHI = %d, want 9", got)
	}
	if got := s[0].Gamma(); !got.Eq(rat.Two) {
		t.Errorf("Gamma = %v, want 2", got)
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set validated")
	}
	dup := Set{validHI(), validHI()}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
}

func TestByCritAndClone(t *testing.T) {
	s := Set{validHI(), validLO(), NewHI("h2", 20, 10, 20, 1, 2)}
	his := s.ByCrit(HI)
	if len(his) != 2 || his[0].Name != "h" || his[1].Name != "h2" {
		t.Errorf("ByCrit(HI) = %v", his)
	}
	los := s.ByCrit(LO)
	if len(los) != 1 || los[0].Name != "l" {
		t.Errorf("ByCrit(LO) = %v", los)
	}
	c := s.Clone()
	c[0].Name = "changed"
	if s[0].Name != "h" {
		t.Error("Clone aliases the original")
	}
}

func TestShortenHIDeadlines(t *testing.T) {
	s := Set{NewImplicitHI("h", 100, 10, 20), NewImplicitLO("l", 50, 5)}
	out, err := s.ShortenHIDeadlines(rat.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Deadline[LO]; got != 50 {
		t.Errorf("D(LO) = %d, want 50", got)
	}
	if out[1].Deadline[LO] != 50 {
		t.Error("LO task deadline must not change")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}

	// Clamping: x so small the virtual deadline would undercut C(LO).
	out, err = s.ShortenHIDeadlines(rat.New(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Deadline[LO]; got != 10 { // clamped to C(LO)
		t.Errorf("clamped D(LO) = %d, want 10", got)
	}

	// Out-of-range x rejected.
	for _, x := range []rat.Rat{rat.Zero, rat.One, rat.New(3, 2), rat.New(-1, 2)} {
		if _, err := s.ShortenHIDeadlines(x); err == nil {
			t.Errorf("x = %v accepted", x)
		}
	}
}

// TestShortenHIDeadlinesFloor checks eq. (13)'s ⌊x·D(HI)⌋ against
// big.Rat over factors and deadlines up to 2^62, where x·D(HI) no longer
// fits int64/int64, including the boundaries of the C(LO)/D(HI)−1 clamp.
func TestShortenHIDeadlinesFloor(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		den := rnd.Int63n(1<<uint(rnd.Intn(62)+1)) + 2
		x := rat.New(rnd.Int63n(den-1)+1, den)
		dHI := Time(rnd.Int63n(1<<uint(rnd.Intn(62)+1)) + 2)
		cLO := Time(rnd.Int63n(int64(dHI)-1) + 1)
		if i%4 == 0 {
			cLO = 1
		}
		s := Set{NewHI("h", dHI, dHI, dHI, cLO, cLO)}
		out, err := s.ShortenHIDeadlines(x)
		if err != nil {
			t.Fatalf("x = %v, D(HI) = %d: %v", x, dHI, err)
		}
		f := new(big.Rat).Mul(big.NewRat(x.Num(), x.Den()), new(big.Rat).SetInt64(int64(dHI)))
		want := Time(new(big.Int).Quo(f.Num(), f.Denom()).Int64())
		want = min(max(want, cLO), dHI-1)
		if got := out[0].Deadline[LO]; got != want {
			t.Fatalf("x = %v, D(HI) = %d, C(LO) = %d: D(LO) = %d, want %d", x, dHI, cLO, got, want)
		}
	}
}

func TestDegradeLO(t *testing.T) {
	s := Set{NewImplicitHI("h", 100, 10, 20), NewImplicitLO("l", 50, 5)}
	out, err := s.DegradeLO(rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Deadline[HI] != 100 || out[1].Period[HI] != 100 {
		t.Errorf("degraded LO params = D %d, T %d; want 100, 100", out[1].Deadline[HI], out[1].Period[HI])
	}
	if out[0].Deadline[HI] != 100 {
		t.Error("HI task must not be degraded")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DegradeLO(rat.New(1, 2)); err == nil {
		t.Error("y < 1 accepted")
	}
	// y = 1 is the identity.
	id, err := s.DegradeLO(rat.One)
	if err != nil {
		t.Fatal(err)
	}
	if id[1].Deadline[HI] != s[1].Deadline[HI] || id[1].Period[HI] != s[1].Period[HI] {
		t.Error("y = 1 changed parameters")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Set{validHI(), validLO()}.TerminateLO()
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"inf"`) {
		t.Errorf("termination not encoded as \"inf\":\n%s", data)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("round trip length %d != %d", len(back), len(s))
	}
	for i := range s {
		if back[i] != s[i] {
			t.Errorf("task %d: %v != %v", i, back[i], s[i])
		}
	}
}

func TestParseJSONRejectsInvalid(t *testing.T) {
	if _, err := ParseJSON([]byte(`[{`)); err == nil {
		t.Error("syntax error accepted")
	}
	// Structurally valid JSON but violates eq. (1).
	bad := `[{"name":"h","crit":"HI","period":[10,10],"deadline":[10,10],"wcet":[2,4]}]`
	if _, err := ParseJSON([]byte(bad)); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestTimeJSON(t *testing.T) {
	var tt Time
	if err := json.Unmarshal([]byte(`"inf"`), &tt); err != nil || !tt.IsUnbounded() {
		t.Errorf("unmarshal inf: %v, %v", tt, err)
	}
	if err := json.Unmarshal([]byte(`42`), &tt); err != nil || tt != 42 {
		t.Errorf("unmarshal 42: %v, %v", tt, err)
	}
	if err := json.Unmarshal([]byte(`"wat"`), &tt); err == nil {
		t.Error("bad Time accepted")
	}
}

func TestCritJSONAndString(t *testing.T) {
	var c Crit
	if err := json.Unmarshal([]byte(`"hi"`), &c); err != nil || c != HI {
		t.Errorf("unmarshal hi: %v, %v", c, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &c); err == nil {
		t.Error("bad Crit accepted")
	}
	if LO.String() != "LO" || HI.String() != "HI" {
		t.Error("Crit.String broken")
	}
	if Crit(9).String() != "Crit(9)" {
		t.Error("unknown Crit String broken")
	}
}

func TestTableRendering(t *testing.T) {
	s := Set{validHI(), validLO()}.TerminateLO()
	tab := s.Table()
	for _, want := range []string{"task", "C(LO)", "h", "l", "inf"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table() missing %q:\n%s", want, tab)
		}
	}
}

func TestMaxPeriod(t *testing.T) {
	s := Set{validHI(), NewLO("l", 50, 50, 5)}.TerminateLO()
	if got := s.MaxPeriod(); got != 50 {
		t.Errorf("MaxPeriod = %d, want 50 (Unbounded must be ignored)", got)
	}
}

func TestAccessorsAndString(t *testing.T) {
	tk := validHI()
	if tk.T(LO) != 10 || tk.T(HI) != 10 || tk.D(LO) != 5 || tk.D(HI) != 10 ||
		tk.C(LO) != 2 || tk.C(HI) != 4 {
		t.Errorf("accessors broken: %s", tk.String())
	}
	s := tk.String()
	for _, want := range []string{"h[HI]", "C=(2,4)", "D=(5,10)", "T=(10,10)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
	term := Set{validLO()}.TerminateLO()
	if !strings.Contains(term[0].String(), "inf") {
		t.Errorf("terminated String: %s", term[0].String())
	}
}

func TestUtilBounds(t *testing.T) {
	s := Set{validHI(), validLO()}
	lo, hi := s.UtilBounds(HI)
	if !lo.Eq(hi) {
		t.Errorf("small-set bounds differ: %v, %v", lo, hi)
	}
	if !hi.Eq(s.Util(HI)) {
		t.Errorf("bounds disagree with Util: %v vs %v", hi, s.Util(HI))
	}
	// A large set with coprime periods forces directed rounding.
	var big Set
	primes := []Time{10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093}
	for i, p := range primes {
		big = append(big, NewLO(string(rune('a'+i)), p, p, 123))
	}
	lo, hi = big.UtilBounds(LO)
	if lo.Cmp(hi) > 0 {
		t.Errorf("lower bound above upper: %v > %v", lo, hi)
	}
	gap := hi.Sub(lo).Float64()
	if gap < 0 || gap > 1e-5 {
		t.Errorf("bounds gap %v out of expected range", gap)
	}
}
