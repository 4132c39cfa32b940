package gen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mcspeedup/internal/task"
)

// resumUAvg is the growth metric re-summed from scratch through
// task.Set.UtilCrit: the definition the generator's running sums must
// reproduce.
func resumUAvg(s task.Set) float64 {
	return (s.UtilCrit(task.LO, task.LO).Float64() +
		s.UtilCrit(task.HI, task.HI).Float64()) / 2
}

// refSet is the generator's Set as it was before the running sums: it
// clones and re-sums the whole set for every candidate. It is the
// reference of TestSetMatchesResumReference.
func refSet(p Params, rnd *rand.Rand, uBound float64) (task.Set, bool) {
	var s task.Set
	name := 0
	add := func(tk task.Task) {
		tk.Name = taskName(name)
		name++
		s = append(s, tk)
	}
	add(p.drawTask(rnd, task.HI))
	add(p.drawTask(rnd, task.LO))
	for attempts := 0; resumUAvg(s) < uBound-p.tol(); {
		crit := task.LO
		if rnd.Float64() < p.ProbHI {
			crit = task.HI
		}
		cand := p.drawTask(rnd, crit)
		grown := append(s.Clone(), cand)
		if resumUAvg(grown) > uBound {
			attempts++
			if attempts > p.maxAttempts() {
				return nil, false
			}
			continue
		}
		cand.Name = taskName(name)
		name++
		s = append(s, cand)
	}
	if resumUAvg(s) > uBound {
		return nil, false
	}
	if err := s.Validate(); err != nil {
		return nil, false
	}
	return s, true
}

// refSetWithTargets is SetWithTargets as it was before the running sums,
// the reference of TestSetWithTargetsMatchesResumReference.
func refSetWithTargets(p Params, rnd *rand.Rand, uHI, uLO, tol float64) (task.Set, bool) {
	var s task.Set
	name := 0
	add := func(tk task.Task) {
		tk.Name = taskName(name)
		name++
		s = append(s, tk)
	}
	grow := func(crit task.Crit, current func() float64, target float64, maxStep float64) bool {
		attempts := 0
		for current() < target-tol {
			remaining := target - current()
			if remaining <= maxStep {
				period := p.PeriodMax
				if crit == task.HI {
					cHI := task.Time(math.Round(remaining * float64(period)))
					if cHI < 1 {
						cHI = 1
					}
					gamma := p.GammaMin + rnd.Float64()*(p.GammaMax-p.GammaMin)
					cLO := task.Time(math.Round(float64(cHI) / gamma))
					if cLO < 1 {
						cLO = 1
					}
					if cLO > cHI {
						cLO = cHI
					}
					add(task.NewImplicitHI("", period, cLO, cHI))
				} else {
					cLO := task.Time(math.Round(remaining * float64(period)))
					if cLO < 1 {
						cLO = 1
					}
					add(task.NewImplicitLO("", period, cLO))
				}
				continue
			}
			cand := p.drawTask(rnd, crit)
			grown := append(s.Clone(), cand)
			var u float64
			if crit == task.HI {
				u = grown.UtilCrit(task.HI, task.HI).Float64()
			} else {
				u = grown.UtilCrit(task.LO, task.LO).Float64()
			}
			if u > target+tol {
				attempts++
				if attempts > p.maxAttempts() {
					return false
				}
				continue
			}
			add(cand)
		}
		return current() <= target+tol
	}
	maxStepHI := p.UtilMax * p.GammaMax
	if maxStepHI > 1 {
		maxStepHI = 1
	}
	okHI := grow(task.HI, func() float64 { return s.UtilCrit(task.HI, task.HI).Float64() }, uHI, maxStepHI)
	okLO := grow(task.LO, func() float64 { return s.UtilCrit(task.LO, task.LO).Float64() }, uLO, p.UtilMax)
	if !okHI || !okLO || len(s) == 0 {
		return nil, false
	}
	if err := s.Validate(); err != nil {
		return nil, false
	}
	return s, true
}

// randomParams draws generator parameters around the paper's: period
// ranges from narrow to the full [2 ms, 2 s], per-task utilization ranges
// from tiny to wide, γ from none to 10, tight or default windows and
// redraw budgets — the variety that exercises both the fixed-width and
// the big.Rat side of the running sums and every failure exit.
func randomParams(rnd *rand.Rand) Params {
	p := Defaults()
	p.PeriodMin = task.Time(2 + rnd.Intn(200))
	p.PeriodMax = p.PeriodMin + task.Time(rnd.Intn(20000))
	p.UtilMin = 0.001 + 0.05*rnd.Float64()
	p.UtilMax = p.UtilMin + 0.3*rnd.Float64()
	p.GammaMin = 1 + 4*rnd.Float64()
	p.GammaMax = p.GammaMin + 6*rnd.Float64()
	p.ProbHI = rnd.Float64()
	if rnd.Intn(2) == 0 {
		p.Tol = 0.001 + 0.03*rnd.Float64()
	}
	if rnd.Intn(2) == 0 {
		p.MaxAttempts = 1 + rnd.Intn(20)
	}
	return p
}

// sameSets reports whether two generator outcomes are identical.
func sameSets(a task.Set, aok bool, b task.Set, bok bool) bool {
	if aok != bok || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSetMatchesResumReference: Set with running sums must make every
// accept/reject decision the clone-and-re-sum reference makes, so both
// return the same outcome and leave the random stream in the same state.
func TestSetMatchesResumReference(t *testing.T) {
	meta := rand.New(rand.NewSource(75))
	for iter := 0; iter < 300; iter++ {
		p := randomParams(meta)
		if iter%3 == 0 {
			p = Defaults()
		}
		u := 0.02 + 0.95*meta.Float64()
		seed := meta.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for n := 0; n < 4; n++ {
			got, gotOK := p.Set(a, u)
			want, wantOK := refSet(p, b, u)
			if !sameSets(got, gotOK, want, wantOK) {
				t.Fatalf("params %+v, U=%v, seed %d, draw %d: Set = %v (ok %v), reference = %v (ok %v)",
					p, u, seed, n, got, gotOK, want, wantOK)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("params %+v, U=%v, seed %d: random streams diverged", p, u, seed)
		}
	}
}

// TestSetWithTargetsMatchesResumReference is the same differential check
// for SetWithTargets over random targets.
func TestSetWithTargetsMatchesResumReference(t *testing.T) {
	meta := rand.New(rand.NewSource(76))
	for iter := 0; iter < 300; iter++ {
		p := randomParams(meta)
		if iter%3 == 0 {
			p = Defaults()
			p.GammaMin, p.GammaMax = 10, 10
		}
		uHI, uLO := 0.05+0.9*meta.Float64(), 0.05+0.9*meta.Float64()
		tol := 0.005 + 0.03*meta.Float64()
		seed := meta.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, gotOK := p.SetWithTargets(a, uHI, uLO, tol)
		want, wantOK := refSetWithTargets(p, b, uHI, uLO, tol)
		if !sameSets(got, gotOK, want, wantOK) {
			t.Fatalf("params %+v, targets (%v, %v)±%v, seed %d: SetWithTargets = %v (ok %v), reference = %v (ok %v)",
				p, uHI, uLO, tol, seed, got, gotOK, want, wantOK)
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("params %+v, targets (%v, %v), seed %d: random streams diverged", p, uHI, uLO, seed)
		}
	}
}

// TestUnreachableTargetFails: an average utilization below what the seed
// HI+LO pair alone contributes can never be hit. DrawSet must give up
// with an error naming the target, and MustSet must panic with it,
// instead of redrawing forever.
func TestUnreachableTargetFails(t *testing.T) {
	p := Defaults()
	rnd := rand.New(rand.NewSource(77))
	if s, err := p.DrawSet(rnd, 0.005); err == nil || !strings.Contains(err.Error(), "0.005") {
		t.Fatalf("DrawSet(0.005) = %v, %v; want an error naming the target", s, err)
	}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "0.005") {
			t.Fatalf("MustSet(0.005) panicked with %v; want an error naming the target", r)
		}
	}()
	p.MustSet(rnd, 0.005)
	t.Fatal("MustSet(0.005) returned")
}

func TestSetHitsUtilizationTarget(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	p := Defaults()
	for _, uBound := range []float64{0.3, 0.5, 0.7, 0.9} {
		for i := 0; i < 30; i++ {
			s := p.MustSet(rnd, uBound)
			if err := s.Validate(); err != nil {
				t.Fatalf("U=%.1f: %v", uBound, err)
			}
			got := resumUAvg(s)
			if got > uBound || got < uBound-p.tol()-1e-9 {
				t.Fatalf("U=%.1f: uAvg = %.4f outside [%.4f, %.4f]", uBound, got, uBound-p.tol(), uBound)
			}
			if len(s.ByCrit(task.HI)) == 0 || len(s.ByCrit(task.LO)) == 0 {
				t.Fatalf("U=%.1f: missing a criticality level", uBound)
			}
		}
	}
}

func TestGeneratedParameterRanges(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	p := Defaults()
	for i := 0; i < 50; i++ {
		s := p.MustSet(rnd, 0.6)
		for j := range s {
			tk := &s[j]
			if tk.Period[task.LO] < p.PeriodMin || tk.Period[task.LO] > p.PeriodMax {
				t.Fatalf("period %d outside [%d, %d]", tk.Period[task.LO], p.PeriodMin, p.PeriodMax)
			}
			if tk.Deadline[task.HI] != tk.Period[task.HI] && tk.Crit == task.HI {
				t.Fatalf("HI task not implicit-deadline: %s", tk.String())
			}
			u := tk.Util(task.LO).Float64()
			// Rounding of C = U·T can push the realized utilization
			// slightly outside the drawing range.
			if u < p.UtilMin/2 || u > p.UtilMax*1.1 {
				t.Fatalf("per-task U(LO) = %.4f outside sane range (%s)", u, tk.String())
			}
			if tk.Crit == task.HI {
				g := tk.Gamma().Float64()
				if g < 1 || g > p.GammaMax+0.5 {
					t.Fatalf("γ = %.3f outside range (%s)", g, tk.String())
				}
			}
		}
	}
}

func TestSetWithTargets(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	p := Defaults()
	p.GammaMin, p.GammaMax = 10, 10 // Fig. 7 configuration
	hits := 0
	for i := 0; i < 40; i++ {
		s, ok := p.SetWithTargets(rnd, 0.6, 0.4, 0.025)
		if !ok {
			continue
		}
		hits++
		uHI := s.UtilCrit(task.HI, task.HI).Float64()
		uLO := s.UtilCrit(task.LO, task.LO).Float64()
		if uHI < 0.6-0.025-1e-9 || uHI > 0.6+0.025+1e-9 {
			t.Fatalf("U_HI = %.4f not within 0.6±0.025", uHI)
		}
		if uLO < 0.4-0.025-1e-9 || uLO > 0.4+0.025+1e-9 {
			t.Fatalf("U_LO = %.4f not within 0.4±0.025", uLO)
		}
	}
	if hits < 20 {
		t.Fatalf("only %d/40 target draws succeeded", hits)
	}
}

func TestDeterminism(t *testing.T) {
	p := Defaults()
	a := p.MustSet(rand.New(rand.NewSource(99)), 0.5)
	b := p.MustSet(rand.New(rand.NewSource(99)), 0.5)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic set sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic task %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGammaTenCapsAtPeriod(t *testing.T) {
	rnd := rand.New(rand.NewSource(74))
	p := Defaults()
	p.GammaMin, p.GammaMax = 10, 10
	s := p.MustSet(rnd, 0.5)
	for i := range s {
		if s[i].Crit == task.HI && s[i].WCET[task.HI] > s[i].Period[task.HI] {
			t.Fatalf("C(HI) exceeds implicit deadline: %s", s[i].String())
		}
	}
}

func TestTaskNames(t *testing.T) {
	if taskName(0) != "a" || taskName(25) != "z" || taskName(26) != "t26" {
		t.Errorf("taskName sequence broken: %q %q %q", taskName(0), taskName(25), taskName(26))
	}
}

// BenchmarkSet draws sets at the sweep's utilization bounds with Set's
// running sums and with the re-summing reference.
func BenchmarkSet(b *testing.B) {
	arms := []struct {
		name string
		set  func(Params, *rand.Rand, float64) (task.Set, bool)
	}{{"running", Params.Set}, {"resum", refSet}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			p := Defaults()
			rnd := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				arm.set(p, rnd, 0.4+0.1*float64(i%6))
			}
		})
	}
}
