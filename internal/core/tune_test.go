package core

import (
	"math/rand"
	"testing"

	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// TestTuneNeverWorseThanUniform: on random sets the greedy per-task
// tuner must never end up above the uniform minimal-x baseline, and its
// result must stay LO-mode schedulable.
func TestTuneNeverWorseThanUniform(t *testing.T) {
	rnd := rand.New(rand.NewSource(701))
	improved, verified := 0, 0
	for iter := 0; iter < 800 && verified < 80; iter++ {
		s := randomImplicitSet(rnd, 2+rnd.Intn(3), 40)
		res, err := TuneDeadlines(s, rat.Rat{})
		if err != nil {
			continue // LO-infeasible draws
		}
		verified++
		if res.Speedup.Cmp(res.UniformSpeedup) > 0 {
			t.Fatalf("tuned %v worse than uniform %v for:\n%s",
				res.Speedup, res.UniformSpeedup, s.Table())
		}
		if res.Speedup.Cmp(res.UniformSpeedup) < 0 {
			improved++
		}
		okLO, err := SchedulableLO(res.Set)
		if err != nil || !okLO {
			t.Fatalf("tuned set not LO-schedulable: %v %v", okLO, err)
		}
		// The reported speedup is the exact value of the returned set.
		sp, err := MinSpeedup(res.Set)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Speedup.Eq(res.Speedup) {
			t.Fatalf("reported %v != recomputed %v", res.Speedup, sp.Speedup)
		}
	}
	if verified < 40 {
		t.Fatalf("only %d sets verified", verified)
	}
	if improved == 0 {
		t.Error("tuning never improved on uniform x — heuristic inert?")
	}
	t.Logf("tuning improved %d/%d sets", improved, verified)
}

// TestTuneHeterogeneousWins constructs a case where uniform x is
// provably suboptimal: one HI task with a huge overrun next to one with
// none. Uniform x must shorten both deadlines together (bounded by the
// LO-mode demand of the pair), while the tuner can spend the entire
// LO-mode slack on the overrunning task.
func TestTuneHeterogeneousWins(t *testing.T) {
	// One HI task with a large overrun next to one with a tiny carry
	// footprint, plus a heavy (degraded) LO task that makes LO-mode
	// slack scarce: uniform x must stop shortening both deadlines when
	// the LO-mode demand binds, while the tuner can spend the remaining
	// slack entirely on the hot task. (The LO task is degraded — an
	// undegraded one would pin s_min at 1 via its own carry ramp and
	// leave nothing to improve.)
	s := task.Set{
		task.NewImplicitHI("hot", 40, 4, 24), // γ = 6: needs early prep
		task.NewImplicitHI("cold", 40, 2, 3), // small carry either way
		task.NewImplicitLO("bg", 40, 24),     // heavy background load
	}
	s, err := s.DegradeLO(rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneDeadlines(s, rat.New(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup.Cmp(res.UniformSpeedup) >= 0 {
		t.Fatalf("expected strict improvement: tuned %v vs uniform %v",
			res.Speedup, res.UniformSpeedup)
	}
	// The tuner must have shortened the hot task's deadline below the
	// uniform baseline's assignment.
	_, uniform, err := MinimalX(s)
	if err != nil {
		t.Fatal(err)
	}
	var tunedHot, uniformHot task.Time
	for i := range res.Set {
		if res.Set[i].Name == "hot" {
			tunedHot = res.Set[i].Deadline[task.LO]
			uniformHot = uniform[i].Deadline[task.LO]
		}
	}
	if tunedHot >= uniformHot {
		t.Errorf("hot deadline not shortened: tuned %d vs uniform %d", tunedHot, uniformHot)
	}
}

func TestTuneRejectsBadInput(t *testing.T) {
	s := task.Set{task.NewImplicitHI("h", 10, 2, 4)}
	if _, err := TuneDeadlines(s, rat.FromInt64(2)); err == nil {
		t.Error("step ≥ 1 accepted")
	}
	over := task.Set{
		task.NewImplicitLO("a", 10, 6),
		task.NewImplicitLO("b", 10, 6),
	}
	if _, err := TuneDeadlines(over, rat.Rat{}); err == nil {
		t.Error("LO-infeasible set accepted")
	}
}
