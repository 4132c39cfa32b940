// Command perfbench is the repository benchmark. It drives three seeded
// workloads through the entry points of the server, task, cache, core,
// sim, fleet and gen packages, checks every output it times against an
// independent oracle, and prints one JSON result as the last line of
// standard output:
//
//	perfbench --workload serve-zipf|sweep|fleet --seed N
//	          --seconds S --trace 0|1 [--serve-bin mcs-serve] [--spans-dir dir]
//
// With --trace 0 the result carries the end-to-end metrics (endToEnd);
// with --trace 1 it carries the per-layer metrics (layerMetrics), taken
// from spans the benchmark records around each call it makes into a
// layer. run.sh builds this program and the mcs-serve replica it drives.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcspeedup/internal/stats"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // the timed window (--seconds)
	trace    bool
	serveBin string // mcs-serve binary; empty runs the server in process
	spansDir string // where the traced run writes its spans; empty = nowhere
	workers  int    // goroutines doing work and client connections: nproc
	small    bool   // tiny corpora and streams, for the package tests
}

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure reasons

	setup   []time.Duration // one per set-up repetition
	latency []float64       // per-operation latency samples, ms
	// windowed, when set, holds the same samples split into time
	// windows; p50_ms (and the printed p99) are then the lower quartiles
	// of the per-window quantiles, so stalls of a shared host that hit some
	// windows do not set the run's figure.
	windowed [][]float64
	opsRate  float64 // operations per second (see endToEnd)
	childMB  float64 // peak RSS of a child process, MiB

	layers map[string]float64 // per-layer metrics (traced runs)
	notes  []string           // human-readable context printed with the result
	spans  *spanLog
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation, failing it when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(config) (*outcome, error){
	"serve-zipf": runServeZipf,
	"sweep":      runSweep,
	"fleet":      runFleet,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "serve-zipf, sweep or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "mcs-serve binary for serve-zipf (empty = in-process server)")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-zipf|sweep|fleet, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace && cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out.note("spans written to %s", path)
	}
	res, err := summarize(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, cfg, out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize turns an outcome into the printed result: the end-to-end
// metrics for an untraced run, every per-layer metric for a traced one (a
// layer the workload does not exercise reads 0).
func summarize(cfg config, out *outcome) (result, error) {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	if cfg.trace {
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricValue{out.layers[m.name], m.unit}
		}
		return res, nil
	}
	if len(out.latency) == 0 || len(out.setup) == 0 {
		return res, errors.New("no timed operations completed")
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return res, err
	}
	values := map[string]float64{
		"setup_s":     median(durationsSeconds(out.setup)),
		"p50_ms":      windowQuantile(out.latency, out.windowed, 0.50),
		"ops_per_s":   out.opsRate,
		"peak_rss_mb": rss + out.childMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return res, nil
}

// printResult writes the human-readable report and then the JSON line.
func printResult(w io.Writer, cfg config, out *outcome, res result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s  seed %d  window %v  trace %t  workers %d\n",
		cfg.workload, cfg.seed, cfg.measure, cfg.trace, cfg.workers)
	fmt.Fprintf(bw, "attempted %d  failed %d  fail_ratio %.6f\n",
		out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	for _, f := range out.failures {
		fmt.Fprintf(bw, "  failure: %s\n", f)
	}
	if cfg.trace {
		for _, m := range layerMetrics {
			v, ok := out.layers[m.name]
			val := "n/a (layer not exercised by this workload)"
			if ok {
				val = strconv.FormatFloat(v, 'g', 6, 64)
			}
			fmt.Fprintf(bw, "  %-34s %-14s %-6s -> %s\n", m.name, val, m.unit, m.target)
		}
	} else {
		windows := max(len(out.windowed), 1)
		fmt.Fprintf(bw, "  latency samples %d in %d window(s); p99 %.6g ms with %d samples beyond it per window\n",
			len(out.latency), windows, windowQuantile(out.latency, out.windowed, 0.99), len(out.latency)/windows/100)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(bw, "  %-14s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(bw, "  note: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// timeSetup runs fn setupReps times (once for small runs), recording
// each repetition's duration; the last repetition's state is the one the
// run measures.
func timeSetup(cfg config, out *outcome, fn func() error) error {
	reps := setupReps
	if cfg.small {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	return nil
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) from
// /proc/<pid>/status.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// windowQuantile is the lower quartile of the windows' q-quantiles, or
// the q-quantile of all samples when no window holds any.
func windowQuantile(samples []float64, windows [][]float64, q float64) float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, stats.Quantile(w, q))
		}
	}
	if len(per) == 0 {
		return stats.Quantile(samples, q)
	}
	return stats.Quantile(per, 0.25)
}

// chunks splits samples into n consecutive, nearly equal windows.
func chunks(samples []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for w := range out {
		out[w] = samples[w*len(samples)/n : (w+1)*len(samples)/n]
	}
	return out
}

func median(v []float64) float64 { return stats.Quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Mean(v)
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
