// Command mcs-bench measures the analysis engine's steady-state
// performance and writes the machine-readable trajectory BENCH_core.json
// tracked at the repository root (see docs/PERF.md). It benchmarks the
// hot analysis paths with testing.Benchmark — so ns/op, B/op, and
// allocs/op carry the exact semantics of `go test -bench` — plus one
// timed run of the Fig.-5 design-space sweep as an end-to-end wall-clock
// probe.
//
// Usage:
//
//	mcs-bench [-out BENCH_core.json] [-trajectory BENCH_trajectory.json]
//	          [-grid 9] [-workers 0] [-compare BENCH_core.json]
//	          [-cpuprofile bench.pprof]
//
// Regenerate the checked-in file with scripts/bench_core.sh. Absolute
// numbers are machine-dependent; allocs/op is the portable signal the
// regression tests pin (see internal/core's zero-allocation tests).
//
// -compare diffs the fresh numbers against a baseline BENCH_core.json
// and exits nonzero on a regression: any allocs/op increase (the
// machine-independent counter), or a ns/op slowdown beyond
// -compare-tol (default 15%). CI's perf-gate job runs the comparison
// with -compare-ns-fail=false, demoting wall-clock drift to a warning
// annotation — shared runners are too noisy for a hard ns/op wall.
//
// -cpuprofile writes a pprof CPU profile covering the benchmark loops
// and the Fig.-5 sweep; docs/PERF.md has a "reading the profile"
// walkthrough.
//
// -trajectory appends one dated entry — git revision, per-benchmark
// numbers, and the event counters of the FMS walks — to a JSON-array
// history file, so performance can be compared across
// commits (CI uploads the file as a build artifact). The event counters
// are machine-independent: they count examined demand events, the
// algorithmic work the pruning of docs/PERF.md removes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mcspeedup"
)

// benchDoc is the BENCH_core.json layout. GoMaxProcs and CPUModel
// qualify the machine the ns/op numbers came from (a baseline taken at
// GOMAXPROCS=1 or on different silicon is not comparable); both are
// omitempty so trajectory entries written before they existed re-marshal
// unchanged.
type benchDoc struct {
	GeneratedAt string       `json:"generatedAt"`
	GoVersion   string       `json:"goVersion"`
	NumCPU      int          `json:"numCPU"`
	GoMaxProcs  int          `json:"gomaxprocs,omitempty"`
	CPUModel    string       `json:"cpuModel,omitempty"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	Fig5        fig5Entry    `json:"fig5Sweep"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

type fig5Entry struct {
	Grid    int     `json:"grid"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// trajectoryEntry is one element of the BENCH_trajectory.json array: the
// same measurements as BENCH_core.json plus the commit they were taken at
// and the FMS event counters, which compare across machines.
type trajectoryEntry struct {
	Date       string       `json:"date"`
	GitRev     string       `json:"gitRev"`
	GoVersion  string       `json:"goVersion"`
	NumCPU     int          `json:"numCPU"`
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	CPUModel   string       `json:"cpuModel,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
	FMSEvents  eventsEntry  `json:"fmsEvents"`
}

// eventsEntry records how many demand events each exact FMS analysis
// examined, plus its bulk-skip count. The event-by-event walks' counts
// (2436, 27 and 303) are constants, pinned by internal/core's
// TestFMSPruningStrictlyFewerEvents; entries written before this change
// also carry them as speedupUnpruned, resetUnpruned and
// speedForResetUnpruned.
type eventsEntry struct {
	SpeedupExamined  int `json:"speedupExamined"`
	SpeedupJumps     int `json:"speedupJumps"`
	ResetExamined    int `json:"resetExamined"`
	ResetJumps       int `json:"resetJumps"`
	SpeedForExamined int `json:"speedForResetExamined"`
	SpeedForJumps    int `json:"speedForResetJumps"`
}

// fmsEventCounts runs the three exact FMS analyses and collects their
// event counters.
func fmsEventCounts(fms mcspeedup.Set) eventsEntry {
	var e eventsEntry
	sp, err := mcspeedup.MinSpeedup(fms)
	if err != nil {
		log.Fatal(err)
	}
	e.SpeedupExamined, e.SpeedupJumps = sp.Events, sp.Jumps

	rr, err := mcspeedup.ResetTime(fms, mcspeedup.RatTwo)
	if err != nil {
		log.Fatal(err)
	}
	e.ResetExamined, e.ResetJumps = rr.Events, rr.Jumps

	sr, err := mcspeedup.MinSpeedForReset(fms, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	e.SpeedForExamined, e.SpeedForJumps = sr.Events, sr.Jumps

	log.Printf("FMS events examined: speedup %d (%d jumps), reset %d (%d jumps), speed-for-reset %d (%d jumps)",
		e.SpeedupExamined, e.SpeedupJumps, e.ResetExamined, e.ResetJumps,
		e.SpeedForExamined, e.SpeedForJumps)
	return e
}

// cpuModel returns the "model name" of the first processor entry in
// /proc/cpuinfo, or "" where that interface does not exist (non-Linux
// hosts). The field is informational; an empty value is omitted from
// the JSON rather than guessed at.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// compareBaseline diffs fresh benchmark results against the baseline
// BENCH_core.json at path. Alloc-counter increases always count as
// regressions — allocs/op is machine-independent, so any growth is a
// real code change. ns/op slowdowns beyond tol count only when nsFail
// is set; with nsFail false they are demoted to warnings (GitHub
// ::warning annotations under Actions), which is how CI's perf-gate job
// runs on noisy shared runners. Benchmarks present on only one side are
// reported informationally and never fail the comparison.
func compareBaseline(path string, fresh []benchEntry, tol float64, nsFail bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchDoc
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s is not a BENCH_core.json document: %v", path, err)
	}
	baseline := make(map[string]benchEntry, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	warn := func(msg string) {
		if os.Getenv("GITHUB_ACTIONS") != "" {
			fmt.Printf("::warning title=mcs-bench compare::%s\n", msg)
		}
		log.Printf("compare: WARN %s", msg)
	}
	var failures []string
	for _, e := range fresh {
		b, ok := baseline[e.Name]
		if !ok {
			log.Printf("compare: %-28s new benchmark (no baseline entry)", e.Name)
			continue
		}
		delete(baseline, e.Name)
		if e.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d -> %d",
				e.Name, b.AllocsPerOp, e.AllocsPerOp))
			continue
		}
		var drift float64
		if b.NsPerOp > 0 {
			drift = (e.NsPerOp/b.NsPerOp - 1) * 100
		}
		if b.NsPerOp > 0 && e.NsPerOp > b.NsPerOp*(1+tol) {
			msg := fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
				e.Name, b.NsPerOp, e.NsPerOp, drift, tol*100)
			if nsFail {
				failures = append(failures, msg)
			} else {
				warn(msg)
			}
			continue
		}
		log.Printf("compare: %-28s ok (ns/op %+.1f%%, allocs/op %d -> %d)",
			e.Name, drift, b.AllocsPerOp, e.AllocsPerOp)
	}
	for name := range baseline {
		log.Printf("compare: %-28s only in baseline (dropped?)", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("regressions vs %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}

// gitRev returns the short commit hash of the working tree, suffixed
// "-dirty" when tracked files differ from that commit (the numbers then
// describe uncommitted code, not the commit), or "unknown" outside a git
// checkout (e.g. an extracted release tarball).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD", "--").Run() != nil {
		rev += "-dirty"
	}
	return rev
}

// appendTrajectory appends entry to the JSON array at path, creating the
// file on first use. The history is handled as raw messages so entries
// of other shapes (the "kind": "load" latency rows a retired load
// harness left in BENCH_trajectory.json) pass through byte-preserved
// instead of being re-shaped through this tool's entry struct.
func appendTrajectory(path string, entry any) error {
	var hist []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &hist); err != nil {
			return fmt.Errorf("%s is not a trajectory array: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	hist = append(hist, raw)
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure runs fn under testing.Benchmark with allocation reporting.
func measure(name string, fn func()) benchEntry {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	e := benchEntry{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	log.Printf("%-28s %12.0f ns/op %8d B/op %6d allocs/op (%d iters)",
		e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Iterations)
	return e
}

// fmsPrepared is the §VI.A flight-management set degraded by y = 2 and
// minimally prepared — the same configuration the repository's root
// benchmarks use.
func fmsPrepared() mcspeedup.Set {
	set, err := mcspeedup.FMSTasks(mcspeedup.RatTwo)
	if err != nil {
		log.Fatal(err)
	}
	set, err = set.DegradeLO(mcspeedup.RatTwo)
	if err != nil {
		log.Fatal(err)
	}
	_, prepared, err := mcspeedup.MinimalX(set)
	if err != nil {
		log.Fatal(err)
	}
	return prepared
}

// flipEdits picks the first FMS HI task whose parameter param (C(HI) or
// D(LO)) can be lowered by one without invalidating the set and returns
// the two alternating single-parameter edits a session-edit benchmark
// flips between.
func flipEdits(set mcspeedup.Set, param string) (up, down mcspeedup.Edit) {
	for _, tk := range set {
		if tk.Crit != mcspeedup.HI {
			continue
		}
		v := tk.WCET[mcspeedup.HI]
		if param == mcspeedup.ParamDLO {
			v = tk.Deadline[mcspeedup.LO]
		}
		up, down = mcspeedup.SetParam(tk.Name, param, v), mcspeedup.SetParam(tk.Name, param, v-1)
		if _, err := mcspeedup.ApplyEdits(set, down); err == nil {
			return up, down
		}
	}
	log.Fatalf("no FMS HI task takes a %s flip", param)
	return
}

// sessionEdit measures one single-parameter edit plus the re-analysis it
// triggers on a session over set. The session persists across
// iterations (that is the point of the incremental path); the edit
// alternates between two valid values so every iteration really changes
// the set.
func sessionEdit(name string, set mcspeedup.Set, param string) benchEntry {
	up, down := flipEdits(set, param)
	sess, err := mcspeedup.NewAnalysisSession(set, mcspeedup.RatTwo)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := sess.Report(); err != nil { // absorb the cold analysis
		log.Fatal(err)
	}
	n := 0
	return measure(name, func() {
		e := [2]mcspeedup.Edit{down, up}[n%2]
		n++
		if err := sess.Apply(e); err != nil {
			log.Fatal(err)
		}
		if _, _, err := sess.Report(); err != nil {
			log.Fatal(err)
		}
	})
}

// genPrepared mirrors the root benchmarks' synthetic corpus: a
// generator set at the given seed and utilization, minimally prepared.
func genPrepared(seed int64, uBound float64) mcspeedup.Set {
	g := mcspeedup.DefaultGenerator()
	rnd := rand.New(rand.NewSource(seed))
	for {
		set := g.MustSet(rnd, uBound)
		if _, prepared, err := mcspeedup.MinimalX(set); err == nil {
			return prepared
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-bench: ")
	var (
		out        = flag.String("out", "BENCH_core.json", "output path (- = stdout)")
		trajectory = flag.String("trajectory", "", "append a dated entry to this JSON-array history file")
		grid       = flag.Int("grid", 9, "Fig.-5 sweep grid resolution")
		workers    = flag.Int("workers", 0, "Fig.-5 sweep workers (0 = all cores)")
		compare    = flag.String("compare", "", "baseline BENCH_core.json to diff against; exit nonzero on regression")
		compareTol = flag.Float64("compare-tol", 0.15, "ns/op slowdown tolerated by -compare")
		compareNS  = flag.Bool("compare-ns-fail", true, "fail -compare on ns/op regressions (false: warn only; allocs/op increases always fail)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	)
	flag.Parse()

	fms := fmsPrepared()
	synth := genPrepared(77, 0.7)
	scratch := new(mcspeedup.AnalysisScratch)
	withScratch := mcspeedup.AnalysisOptions{Scratch: scratch}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		// The profile covers the benchmark loops and the Fig.-5 sweep —
		// the analysis hot paths — not the file writes;
		// stopCPUProfile below is called right after the sweep.
		defer f.Close()
	}

	doc := benchDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
	}
	doc.Benchmarks = []benchEntry{
		measure("MinSpeedupFMS", func() {
			if _, err := mcspeedup.MinSpeedup(fms); err != nil {
				log.Fatal(err)
			}
		}),
		measure("MinSpeedupFMSScratch", func() {
			if _, err := mcspeedup.MinSpeedupOpts(fms, withScratch); err != nil {
				log.Fatal(err)
			}
		}),
		measure("ResetTimeFMS", func() {
			if _, err := mcspeedup.ResetTimeOpts(fms, mcspeedup.RatTwo, withScratch); err != nil {
				log.Fatal(err)
			}
		}),
		measure("MinSpeedForResetFMS", func() {
			if _, err := mcspeedup.MinSpeedForResetOpts(fms, 50_000, withScratch); err != nil {
				log.Fatal(err)
			}
		}),
		measure("MinimalY", func() {
			if _, _, err := mcspeedup.MinimalY(synth, mcspeedup.RatTwo); err != nil {
				log.Fatal(err)
			}
		}),
		measure("TuneDeadlines", func() {
			if _, err := mcspeedup.TuneDeadlines(synth, mcspeedup.RatZero); err != nil {
				log.Fatal(err)
			}
		}),
		measure("FeasibleXWindowFMS", func() {
			if _, _, err := mcspeedup.FeasibleXWindow(fms, mcspeedup.RatTwo); err != nil {
				log.Fatal(err)
			}
		}),
		measure("AnalyzeColdFMS", func() {
			if _, err := mcspeedup.AnalyzeSet(fms, mcspeedup.RatTwo); err != nil {
				log.Fatal(err)
			}
		}),
	}

	// GenSetSweep: the generator half of the Fig. 6/7 sweep — one op
	// draws the sweep's twelve-set mix (utilization bounds 0.4…0.9, each
	// with γ ∈ [1, 3] and with γ = 10) with MustSet and degrades each set
	// by y = 2. The stream is reseeded per op, so allocs/op is exact.
	{
		fig6, fig7 := mcspeedup.DefaultGenerator(), mcspeedup.DefaultGenerator()
		fig7.GammaMin, fig7.GammaMax = 10, 10
		rnd := rand.New(rand.NewSource(1))
		doc.Benchmarks = append(doc.Benchmarks, measure("GenSetSweep", func() {
			rnd.Seed(1)
			for _, g := range []mcspeedup.Generator{fig6, fig7} {
				for _, u := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
					if _, err := g.MustSet(rnd, u).DegradeLO(mcspeedup.RatTwo); err != nil {
						log.Fatal(err)
					}
				}
			}
		}))
	}

	// SimRunFMS: one full simulator run of the FMS set over a 20-period
	// synchronous workload with every-fifth-job overruns, through the
	// compiled zero-allocation entry point (compile and workload built
	// once, Result and SimScratch reused) — allocs/op must read 0.
	{
		horizon := 20 * fms.MaxPeriod()
		wl := mcspeedup.SynchronousPeriodic(fms, horizon, func(_, seq int) bool {
			return seq%5 == 0
		})
		c, err := mcspeedup.CompileSim(fms, wl)
		if err != nil {
			log.Fatal(err)
		}
		cfg := mcspeedup.SimConfig{Speedup: mcspeedup.RatTwo}
		var res mcspeedup.SimResult
		var sc mcspeedup.SimScratch
		doc.Benchmarks = append(doc.Benchmarks, measure("SimRunFMS", func() {
			if err := c.RunInto(&res, &sc, cfg); err != nil {
				log.Fatal(err)
			}
		}))
	}

	// FleetThroughput: sampled-ACET Monte-Carlo runs per second through
	// the fleet engine (single worker, so the number is per-core and the
	// measurement composes with -workers linearly).
	{
		e := measure("FleetThroughput", func() {
			if _, err := mcspeedup.RunFleet(mcspeedup.FleetParams{
				Set: fms, Runs: 32, Seed: 1, Speedup: mcspeedup.RatTwo,
				Horizon: 4 * fms.MaxPeriod(), Workers: 1,
			}); err != nil {
				log.Fatal(err)
			}
		})
		log.Printf("fleet throughput: %.0f runs/sec/core", 32/(e.NsPerOp/1e9))
		doc.Benchmarks = append(doc.Benchmarks, e)
	}

	// SessionDeltaEditFMS: one single-parameter C(HI) edit plus the
	// delta re-analysis it triggers (served by the recorded event curve),
	// against AnalyzeColdFMS above — the delta-vs-cold ratio docs/PERF.md
	// quotes. SessionEditDLOFMS: the same for a D(LO) edit, which moves
	// event positions and so takes the warm walk.
	doc.Benchmarks = append(doc.Benchmarks,
		sessionEdit("SessionDeltaEditFMS", fms, mcspeedup.ParamCHI),
		sessionEdit("SessionEditDLOFMS", fms, mcspeedup.ParamDLO))

	start := time.Now()
	if _, err := mcspeedup.ExperimentFig5(*grid, *workers); err != nil {
		log.Fatal(err)
	}
	doc.Fig5 = fig5Entry{Grid: *grid, Workers: *workers, Seconds: time.Since(start).Seconds()}
	log.Printf("fig5 sweep (grid %d, workers %d): %.3fs", *grid, *workers, doc.Fig5.Seconds)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		log.Printf("wrote CPU profile to %s", *cpuprofile)
	}

	rev := gitRev() // before -out rewrites a tracked file
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		fmt.Print(string(data))
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}

	if *trajectory != "" {
		entry := trajectoryEntry{
			Date:       doc.GeneratedAt,
			GitRev:     rev,
			GoVersion:  doc.GoVersion,
			NumCPU:     doc.NumCPU,
			GoMaxProcs: doc.GoMaxProcs,
			CPUModel:   doc.CPUModel,
			Benchmarks: doc.Benchmarks,
			FMSEvents:  fmsEventCounts(fms),
		}
		if err := appendTrajectory(*trajectory, entry); err != nil {
			log.Fatal(err)
		}
		log.Printf("appended %s @ %s to %s", entry.Date, entry.GitRev, *trajectory)
	}

	if *compare != "" {
		if err := compareBaseline(*compare, doc.Benchmarks, *compareTol, *compareNS); err != nil {
			log.Fatal(err)
		}
		log.Printf("compare: no regressions vs %s", *compare)
	}
}
