package core

import (
	"fmt"
	"strings"
	"testing"

	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// Pinned walk accounting. The per-step costs of the Theorem-2 and
// Corollary-5 walks (the plan's row kernel, the skip-probe screen, the
// event heap) may change, but never what the walks decide: the speedup,
// witness and reset columns below are fixed. The event and jump counts
// are no longer served (/v1/speedup dropped its events field; the server
// exports them as the mcs_walk_* counters), but perfbench's
// core.speedup_events and core.speedup_jumps read them, so they are
// pinned too. The reset walks' counts date from before the row kernel,
// the probe screen and the linear heap build went in. The Theorem-2
// walk's counts were re-recorded when seedBound began probing ramp ends;
// the walk examines fewer events than it did before that (the total
// stays below walkPinEventsBefore), and any later change to the walks'
// per-step machinery must reproduce the table exactly.

// walkPinEventsBefore is the 50 sets' total Theorem-2 Events before
// seedBound probed ramp ends.
const walkPinEventsBefore = 16282

// sweepPinPoint is the substream point of perfbench's sweep corpus, so
// set i here is set i of a seed-1 sweep run.
const sweepPinPoint = 13

// sweepShapedSet draws corpus set i the way the sweep workload does: the
// Fig. 6 generator (Fig. 7's γ = 10 on odd rounds of six) at utilization
// bound 0.4 … 0.9 by i mod 6, LO tasks degraded by y = 2, then the
// minimal x applied, redrawing from the set's own stream while no x makes
// LO mode schedulable.
func sweepShapedSet(t *testing.T, seed int64, i int) task.Set {
	t.Helper()
	rnd := gen.SubRand(seed, sweepPinPoint, i)
	p := gen.Defaults()
	if i/6%2 == 1 {
		p.GammaMin, p.GammaMax = 10, 10
	}
	u := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}[i%6]
	for attempt := 0; attempt < 1000; attempt++ {
		shaped, err := p.MustSet(rnd, u).DegradeLO(rat.Two)
		if err != nil {
			t.Fatal(err)
		}
		if _, prepared, err := MinimalX(shaped); err == nil {
			return prepared
		}
	}
	t.Fatalf("set %d: no LO-feasible draw", i)
	return nil
}

// walkPin is one set's walk outcomes: MinSpeedupOpts (Speedup,
// WitnessDelta, Events, Jumps) and ResetTimeOpts at s = 2 and s = 3
// (Reset, Events, Jumps each).
type walkPin struct {
	speedup, witness   string
	events, jumps      int
	reset2, reset3     string
	r2Events, r3Events int
	r2Jumps, r3Jumps   int
}

func (p walkPin) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %q, %q, %d, %d, %d, %d},",
		p.speedup, p.witness, p.events, p.jumps,
		p.reset2, p.reset3, p.r2Events, p.r3Events, p.r2Jumps, p.r3Jumps)
}

var walkPins = []walkPin{
	{"5164/8967", "8967", 157, 75, "1657/2", "483", 0, 0, 4, 2},
	{"4382/5449", "10898", 76, 38, "7763/2", "7175/3", 0, 0, 2, 2},
	{"5953/6170", "12340", 189, 73, "3035/2", "2660/3", 0, 0, 5, 3},
	{"24569/18886", "18886", 140, 70, "17523/2", "3445", 2, 0, 11, 5},
	{"5161/3645", "14580", 490, 186, "3058", "1289", 0, 0, 9, 4},
	{"26467/16237", "16237", 232, 102, "11023/2", "1942", 0, 0, 16, 7},
	{"13549/20942", "20942", 72, 41, "2540", "1616", 0, 0, 2, 1},
	{"2643/3325", "13300", 69, 35, "1639", "886", 0, 0, 5, 3},
	{"1271/1144", "5720", 11, 5, "6921/2", "2272", 0, 0, 1, 2},
	{"845/653", "1306", 111, 56, "253", "424/3", 0, 0, 3, 2},
	{"17586/11551", "11551", 69, 38, "11242", "22040/3", 0, 0, 3, 3},
	{"10919/6627", "13254", 195, 96, "2362", "780", 0, 0, 8, 4},
	{"5113/7704", "7704", 95, 45, "1448", "1811/2", 0, 1, 3, 2},
	{"15913/21767", "21767", 150, 66, "2615", "1495", 0, 0, 4, 4},
	{"19054/20169", "20169", 431, 153, "1588", "843", 0, 0, 5, 3},
	{"949/775", "2325", 87, 44, "3425/2", "906", 0, 0, 5, 4},
	{"8458/5555", "16665", 167, 77, "3696", "2847/2", 0, 1, 8, 5},
	{"8059/5043", "15129", 280, 125, "9673/2", "5291/3", 0, 0, 12, 7},
	{"11121/16838", "16838", 218, 111, "327", "196", 0, 0, 3, 2},
	{"10037/12513", "12513", 66, 34, "2947/2", "2470/3", 0, 0, 3, 3},
	{"9281/10771", "10771", 58, 32, "7231/2", "6826/3", 0, 0, 4, 3},
	{"17659/14130", "14130", 107, 54, "2807", "4162/3", 0, 0, 5, 3},
	{"237/160", "6880", 136, 67, "3485/2", "2137/3", 0, 0, 9, 4},
	{"20079/14396", "14396", 138, 70, "6427/2", "1385", 0, 0, 7, 5},
	{"3877/5631", "16893", 101, 46, "2771/2", "910", 0, 0, 1, 1},
	{"7621/11137", "11137", 240, 48, "3227/2", "3059/3", 0, 0, 4, 3},
	{"2308/2151", "21510", 114, 50, "7067/2", "2077", 0, 0, 5, 3},
	{"11505/8041", "8041", 50, 27, "4875", "2440", 0, 0, 6, 4},
	{"18952/10105", "10105", 120, 43, "18911", "16610/3", 2, 0, 10, 5},
	{"685/382", "3438", 115, 57, "9019", "6635/3", 0, 0, 15, 7},
	{"144/199", "597", 157, 81, "635/2", "502/3", 0, 0, 2, 1},
	{"1055/1629", "8145", 40, 22, "1471", "2852/3", 0, 0, 1, 0},
	{"476/429", "858", 14, 5, "495/2", "154", 0, 0, 1, 0},
	{"8396/7145", "7145", 192, 95, "559", "946/3", 0, 0, 3, 2},
	{"3493/2459", "17213", 134, 61, "6042", "3669", 0, 0, 3, 2},
	{"8936/5541", "5541", 170, 79, "980", "1196/3", 1, 0, 5, 3},
	{"51/67", "2412", 87, 43, "218", "433/3", 0, 0, 2, 3},
	{"9265/10294", "10294", 142, 67, "1205", "2167/3", 0, 0, 4, 3},
	{"10489/12120", "12120", 285, 86, "2547/2", "2056/3", 0, 0, 3, 2},
	{"973/717", "7887", 73, 37, "5767/2", "4267/3", 0, 0, 8, 5},
	{"8868/5981", "5981", 160, 33, "7365/2", "3791/3", 0, 0, 9, 4},
	{"4188/1963", "1963", 70, 35, "7008", "5486/3", 0, 0, 12, 6},
	{"57/88", "1408", 151, 77, "324", "572/3", 0, 0, 3, 2},
	{"10245/14473", "28946", 312, 153, "812", "993/2", 0, 0, 2, 2},
	{"3871/3385", "3385", 19, 8, "4371/2", "1433", 0, 0, 2, 2},
	{"2753/2241", "2241", 136, 67, "913", "427", 0, 0, 6, 3},
	{"23202/17255", "17255", 137, 66, "3094", "1473", 1, 0, 6, 5},
	{"13393/7780", "15560", 335, 161, "5311/2", "1745/3", 0, 0, 17, 5},
	{"1591/2844", "8532", 197, 73, "1795/2", "1649/3", 0, 0, 3, 2},
	{"2552/2967", "2967", 69, 36, "582", "1025/3", 0, 0, 5, 4},
}

func TestWalkAccountingPinned(t *testing.T) {
	sc := new(Scratch)
	o := Options{Scratch: sc}
	var table strings.Builder
	total := 0
	for i, want := range walkPins {
		s := sweepShapedSet(t, 1, i)
		sp, err := MinSpeedupOpts(s, o)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ResetTimeOpts(s, rat.Two, o)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := ResetTimeOpts(s, rat.FromInt64(3), o)
		if err != nil {
			t.Fatal(err)
		}
		got := walkPin{
			sp.Speedup.String(), fmt.Sprint(sp.WitnessDelta), sp.Events, sp.Jumps,
			r2.Reset.String(), r3.Reset.String(), r2.Events, r3.Events, r2.Jumps, r3.Jumps,
		}
		total += sp.Events
		table.WriteString(got.String() + "\n")
		if got != want {
			t.Errorf("set %d: walk outcomes moved:\n got %v\nwant %v", i, got, want)
		}
	}
	if total >= walkPinEventsBefore {
		t.Errorf("the 50 walks examined %d events, want fewer than %d", total, walkPinEventsBefore)
	}
	if t.Failed() {
		t.Logf("outcomes now:\n%s", table.String())
	}
}
