// Command mcs-bench records the analysis engine's steady-state
// performance in BENCH_core.json at the repository root (see
// docs/PERF.md; scripts/bench_core.sh regenerates it). It keeps no
// benchmark bodies: each row names one _test.go Benchmark* in the rows
// table, run from inside the module as
//
//	go test -run '^$' -bench <row pattern> -benchmem -count 5 -cpu 2 <package>
//
// A row records its five ns/op samples, their median (nsPerOp) and
// their median absolute deviation (MAD); bytesPerOp and allocsPerOp
// (the machine-independent signal) are medians too.
//
// Usage:
//
//	mcs-bench [-out BENCH_core.json] [-trajectory BENCH_trajectory.json]
//	          [-compare BENCH_core.json] [-compare-ns-fail=true]
//
// -compare fails on a regression against a baseline BENCH_core.json
// (see compareBaseline); -compare-ns-fail=false, as CI's perf-gate job
// runs it, demotes ns/op regressions to warnings. -trajectory appends a
// dated entry with the git revision and the FMS walks' event counters
// to a JSON-array history. For a CPU profile, run a row's benchmark
// under go test with -cpuprofile (docs/PERF.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcspeedup"
)

// samples is the number of `go test` samples taken of every row, and
// procs the GOMAXPROCS they run at: the Fig.-5 sweep's worker count, so
// its allocs/op, depends on it.
const samples, procs = 5, 2

// row is one BENCH_core.json row: the package of the _test.go benchmark
// behind it and that benchmark's name as go test prints it, minus the
// Benchmark prefix.
type row struct {
	name, pkg, bench string
}

// rows is the registry of BENCH_core.json rows. The names predate the
// registry and stay for -compare continuity.
var rows = []row{
	{"MinSpeedupFMS", "mcspeedup", "MinSpeedupFMS"},
	{"MinSpeedupFMSScratch", "mcspeedup", "FMS/MinSpeedupScratch"},
	{"ResetTimeFMS", "mcspeedup", "FMS/ResetTime"},
	{"MinSpeedForResetFMS", "mcspeedup", "FMS/MinSpeedForReset"},
	{"MinimalY", "mcspeedup", "MinimalY"},
	{"TuneDeadlines", "mcspeedup", "TuneDeadlines"},
	{"FeasibleXWindowFMS", "mcspeedup", "FMS/FeasibleXWindow"},
	{"AnalyzeColdFMS", "mcspeedup", "FMS/AnalyzeCold"},
	{"GenSetSweep", "mcspeedup/internal/gen", "Set/running"},
	{"SimRunFMS", "mcspeedup/internal/sim", "RunInto"},
	{"FleetThroughput", "mcspeedup/internal/fleet", "Run"},
	{"FleetSample", "mcspeedup/internal/fleet", "Sample"},
	{"SimSkipSporadic", "mcspeedup/internal/sim", "RunWorkloadSporadic"},
	{"SessionDeltaEditFMS", "mcspeedup/internal/core", "SessionEdit/fms-prepared/cHI"},
	{"SessionEditDLOFMS", "mcspeedup/internal/core", "SessionEdit/fms-prepared/dLO"},
	{"Fig5Sweep", "mcspeedup", "Fig5"},
}

// pattern is the -bench argument that selects r's benchmark alone: each
// slash-separated level anchored at both ends.
func (r row) pattern() string {
	levels := strings.Split("Benchmark"+r.bench, "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	return strings.Join(levels, "/")
}

// sample is one `go test -bench` result line: its values by unit
// ("ns/op", "B/op", "allocs/op" and any b.ReportMetric unit).
type sample map[string]float64

// procsSuffix is the -GOMAXPROCS suffix of go test's benchmark names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench -benchmem` output. It returns the
// "cpu:" header ("" where go test printed none) and each benchmark's
// result lines by name, without the Benchmark prefix and the
// -GOMAXPROCS suffix; other lines are skipped.
func parseBench(out string) (cpu string, res map[string][]sample) {
	res = make(map[string][]sample)
lines:
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(v)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		s := make(sample)
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue lines // not a result line
			}
			s[f[i+1]] = v
		}
		name := procsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		res[name] = append(res[name], s)
	}
	return cpu, res
}

// runRow runs r's benchmark count times, passing extra to go test, and
// returns the "cpu:" header and the samples. It fails unless the output
// holds count samples of r's benchmark and nothing else, so a renamed
// benchmark or a pattern matching a sibling cannot drop a row silently.
func runRow(r row, count int, extra ...string) (string, []sample, error) {
	args := append([]string{"test", "-run", "^$", "-bench", r.pattern(), "-benchmem",
		"-count", strconv.Itoa(count), "-cpu", strconv.Itoa(procs)}, extra...)
	cmd := exec.Command("go", append(args, r.pkg)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("%s: go %s: %v\n%s", r.name, strings.Join(args, " "), err, out)
	}
	cpu, res := parseBench(string(out))
	got := res[r.bench]
	delete(res, r.bench)
	if len(got) != count || len(res) > 0 {
		return "", nil, fmt.Errorf("%s: -bench %s in %s gave %d samples of %s (want %d) and %d other benchmarks",
			r.name, r.pattern(), r.pkg, len(got), r.bench, count, len(res))
	}
	return cpu, got, nil
}

// median returns the median of xs, which must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// benchDoc is the BENCH_core.json layout.
type benchDoc struct {
	GeneratedAt string `json:"generatedAt"`
	results
}

// results are the rows and the machine they were taken on (GoMaxProcs
// and CPUModel are omitempty: older trajectory entries lack them).
type results struct {
	GoVersion  string       `json:"goVersion"`
	NumCPU     int          `json:"numCPU"`
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	CPUModel   string       `json:"cpuModel,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchEntry is one row: the medians of its samples, and the ns/op
// samples with their MAD. Documents written before rows carried samples
// hold one measurement in NsPerOp and no SamplesNsPerOp.
type benchEntry struct {
	Name           string    `json:"name"`
	NsPerOp        float64   `json:"nsPerOp"`
	MADNsPerOp     float64   `json:"madNsPerOp"`
	SamplesNsPerOp []float64 `json:"samplesNsPerOp,omitempty"`
	BytesPerOp     int64     `json:"bytesPerOp"`
	AllocsPerOp    int64     `json:"allocsPerOp"`
}

// newEntry summarizes the samples of the row named name.
func newEntry(name string, ss []sample) benchEntry {
	col := func(unit string) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s[unit]
		}
		return xs
	}
	ns := col("ns/op")
	m := median(ns)
	dev := make([]float64, len(ns))
	for i, x := range ns {
		dev[i] = math.Abs(x - m)
	}
	return benchEntry{Name: name, NsPerOp: m, MADNsPerOp: median(dev), SamplesNsPerOp: ns,
		BytesPerOp: int64(median(col("B/op"))), AllocsPerOp: int64(median(col("allocs/op")))}
}

// nsSamples returns e's ns/op samples (a lone NsPerOp in older documents).
func (e benchEntry) nsSamples() []float64 {
	if len(e.SamplesNsPerOp) == 0 {
		return []float64{e.NsPerOp}
	}
	return e.SamplesNsPerOp
}

// slower reports whether fresh is a ns/op regression against base:
// every fresh sample is slower than every baseline sample (for 5 against
// 5, the one-sided exact Mann-Whitney extreme, p = 1/252). The medians
// then also differ by more than the baseline's MAD, as the largest
// baseline sample lies at least one MAD above the baseline median.
func slower(base, fresh benchEntry) bool {
	return slices.Min(fresh.nsSamples()) > slices.Max(base.nsSamples())
}

// trajectoryEntry is one element of the BENCH_trajectory.json array.
type trajectoryEntry struct {
	Date   string `json:"date"`
	GitRev string `json:"gitRev"`
	results
	FMSEvents eventsEntry `json:"fmsEvents"`
}

// eventsEntry records how many demand events each exact FMS analysis
// examined, plus its bulk-skip count; the counts are machine-independent.
type eventsEntry struct {
	SpeedupExamined  int `json:"speedupExamined"`
	SpeedupJumps     int `json:"speedupJumps"`
	ResetExamined    int `json:"resetExamined"`
	ResetJumps       int `json:"resetJumps"`
	SpeedForExamined int `json:"speedForResetExamined"`
	SpeedForJumps    int `json:"speedForResetJumps"`
}

// fmsEventCounts runs the three exact FMS analyses on the FMS rows' set
// (§VI.A, degraded by y = 2, minimally prepared) and collects their
// event counters.
func fmsEventCounts() (eventsEntry, error) {
	fms, err := mcspeedup.FMSTasks(mcspeedup.RatTwo)
	if err == nil {
		fms, err = fms.DegradeLO(mcspeedup.RatTwo)
	}
	if err == nil {
		_, fms, err = mcspeedup.MinimalX(fms)
	}
	if err != nil {
		return eventsEntry{}, err
	}
	sp, err1 := mcspeedup.MinSpeedup(fms)
	rr, err2 := mcspeedup.ResetTime(fms, mcspeedup.RatTwo)
	sr, err3 := mcspeedup.MinSpeedForReset(fms, 50_000)
	e := eventsEntry{sp.Events, sp.Jumps, rr.Events, rr.Jumps, sr.Events, sr.Jumps}
	log.Printf("FMS events examined: %+v", e)
	return e, errors.Join(err1, err2, err3)
}

// readBenchDoc reads the BENCH_core.json document at path.
func readBenchDoc(path string) (doc benchDoc, err error) {
	data, err := os.ReadFile(path)
	if err == nil {
		if err = json.Unmarshal(data, &doc); err != nil {
			err = fmt.Errorf("%s is not a BENCH_core.json document: %v", path, err)
		}
	}
	return doc, err
}

// compareBaseline diffs fresh against base, the baseline read from path.
// An allocs/op increase of a row's median always fails: the counter is
// machine-independent. A ns/op regression (see slower) is checked only
// when both documents name the same CPU model and GOMAXPROCS, and fails
// only when nsFail is set; otherwise it is a warning (a GitHub ::warning
// annotation under Actions). Rows on one side only never fail.
func compareBaseline(path string, base, fresh benchDoc, nsFail bool) error {
	baseline := make(map[string]benchEntry, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	nsComparable := base.CPUModel == fresh.CPUModel && base.GoMaxProcs == fresh.GoMaxProcs
	if !nsComparable {
		log.Printf("compare: ns/op not comparable (baseline %q at GOMAXPROCS %d, this run %q at GOMAXPROCS %d); checking allocs/op only",
			base.CPUModel, base.GoMaxProcs, fresh.CPUModel, fresh.GoMaxProcs)
	}
	var failures []string
	for _, e := range fresh.Benchmarks {
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
		drift := (e.NsPerOp/b.NsPerOp - 1) * 100
		if nsComparable && slower(b, e) {
			msg := fmt.Sprintf("%s: ns/op median %.0f -> %.0f (%+.1f%%, baseline MAD %.0f, every sample slower)",
				e.Name, b.NsPerOp, e.NsPerOp, drift, b.MADNsPerOp)
			if nsFail {
				failures = append(failures, msg)
				continue
			}
			if os.Getenv("GITHUB_ACTIONS") != "" {
				fmt.Printf("::warning title=mcs-bench compare::%s\n", msg)
			}
			log.Printf("compare: WARN %s", msg)
			continue
		}
		log.Printf("compare: %-28s ok (ns/op median %+.1f%%, allocs/op %d -> %d)",
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
// "-dirty" when tracked files differ from it, or "unknown" outside a git
// checkout.
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
// file on first use. Older entries, of whatever shape, are kept as raw
// messages and pass through byte-preserved.
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
	data, err := json.MarshalIndent(append(hist, raw), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// config is the parsed command line.
type config struct {
	out, trajectory, compare string
	compareNS                bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcs-bench: ")
	var c config
	flag.StringVar(&c.out, "out", "BENCH_core.json", "output path (- = stdout)")
	flag.StringVar(&c.trajectory, "trajectory", "", "append a dated entry to this JSON-array history file")
	flag.StringVar(&c.compare, "compare", "", "baseline BENCH_core.json to diff against; exit nonzero on regression")
	flag.BoolVar(&c.compareNS, "compare-ns-fail", true, "fail -compare on ns/op regressions (false: warn only; allocs/op increases always fail)")
	flag.Parse()
	if err := run(c, benchmark); err != nil {
		log.Fatal(err)
	}
}

// run reads the -compare baseline, measures through bench, writes -out
// and -trajectory, and then diffs the fresh numbers against the
// baseline. The baseline is read first: -out may name the same file.
func run(c config, bench func() (benchDoc, error)) error {
	var base benchDoc
	var err error
	if c.compare != "" {
		if base, err = readBenchDoc(c.compare); err != nil {
			return err
		}
	}
	doc, err := bench()
	if err != nil {
		return err
	}

	rev := gitRev() // before -out rewrites a tracked file
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if c.out == "-" {
		fmt.Print(string(data))
	} else {
		if err := os.WriteFile(c.out, data, 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", c.out)
	}

	if c.trajectory != "" {
		entry := trajectoryEntry{Date: doc.GeneratedAt, GitRev: rev, results: doc.results}
		if entry.FMSEvents, err = fmsEventCounts(); err != nil {
			return err
		}
		if err := appendTrajectory(c.trajectory, entry); err != nil {
			return err
		}
		log.Printf("appended %s @ %s to %s", entry.Date, entry.GitRev, c.trajectory)
	}

	if c.compare != "" {
		if err := compareBaseline(c.compare, base, doc, c.compareNS); err != nil {
			return err
		}
		log.Printf("compare: no regressions vs %s", c.compare)
	}
	return nil
}

// benchmark runs every row's benchmark samples times.
func benchmark() (benchDoc, error) {
	doc := benchDoc{time.Now().UTC().Format(time.RFC3339),
		results{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: procs}}
	for _, r := range rows {
		cpu, ss, err := runRow(r, samples)
		if err != nil {
			return doc, err
		}
		e := newEntry(r.name, ss)
		log.Printf("%-22s %12.0f ns/op (MAD %.0f) %8d B/op %6d allocs/op",
			e.Name, e.NsPerOp, e.MADNsPerOp, e.BytesPerOp, e.AllocsPerOp)
		doc.CPUModel = cpu
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	return doc, nil
}
