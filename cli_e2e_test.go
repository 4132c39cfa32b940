package mcspeedup_test

// End-to-end tests of the command-line tools: the binaries are built once
// into a temp directory and exercised exactly as a user would drive them,
// including the mcs-gen → mcs-analyze / mcs-sim / mcs-tradeoff pipelines.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var cliTools = []string{"mcs-gen", "mcs-analyze", "mcs-sim", "mcs-experiments", "mcs-tradeoff", "mcs-serve"}

// buildCLIs compiles every tool once per test binary invocation.
func buildCLIs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range cliTools {
		out := filepath.Join(dir, tool)
		if runtime.GOOS == "windows" {
			out += ".exe"
		}
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func runCLI(t *testing.T, bin string, stdin []byte, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	return out.String(), errBuf.String(), err
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	dir := buildCLIs(t)
	bin := func(tool string) string { return filepath.Join(dir, tool) }

	// mcs-gen: the Table-I example and a random set.
	example, errOut, err := runCLI(t, bin("mcs-gen"), nil, "-example")
	if err != nil {
		t.Fatalf("mcs-gen -example: %v\n%s", err, errOut)
	}
	if !strings.Contains(example, `"tau1"`) {
		t.Fatalf("example set missing tau1:\n%s", example)
	}
	random, _, err := runCLI(t, bin("mcs-gen"), nil, "-u", "0.6", "-seed", "3")
	if err != nil {
		t.Fatalf("mcs-gen random: %v", err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(random), &parsed); err != nil || len(parsed) < 2 {
		t.Fatalf("mcs-gen output not a task-set JSON array: %v\n%s", err, random)
	}
	// A target below what the seed HI+LO pair alone contributes is
	// unreachable: mcs-gen must exit non-zero naming it, not redraw
	// forever.
	if out, errOut, err := runCLI(t, bin("mcs-gen"), nil, "-u", "0.005"); err == nil ||
		out != "" || !strings.Contains(errOut, "utilization 0.005 not reached") {
		t.Errorf("mcs-gen -u 0.005: err %v, stdout %q, stderr %q", err, out, errOut)
	}

	// mcs-analyze on the example: must report the exact paper numbers.
	analysis, _, err := runCLI(t, bin("mcs-analyze"), []byte(example), "-speed", "2", "-")
	if err != nil {
		t.Fatalf("mcs-analyze: %v", err)
	}
	for _, want := range []string{"s_min = 4/3", "Δ_R = 6 ticks", "LO-mode EDF schedulable", "SAFE"} {
		if !strings.Contains(analysis, want) {
			t.Errorf("mcs-analyze output missing %q:\n%s", want, analysis)
		}
	}
	// Transform flags.
	analysis, _, err = runCLI(t, bin("mcs-analyze"), []byte(example), "-minx", "-y", "2", "-")
	if err != nil {
		t.Fatalf("mcs-analyze -minx -y: %v", err)
	}
	if !strings.Contains(analysis, "minimal overrun preparation") {
		t.Errorf("mcs-analyze -minx output:\n%s", analysis)
	}

	// mcs-sim: deterministic sync run with JSON export.
	jsonPath := filepath.Join(dir, "run.json")
	simOut, _, err := runCLI(t, bin("mcs-sim"), []byte(example),
		"-sync", "-horizon", "40", "-gantt", "30", "-responses", "-json", jsonPath, "-")
	if err != nil {
		t.Fatalf("mcs-sim: %v\n%s", err, simOut)
	}
	for _, want := range []string{"0 deadline misses", "HI-mode episode", "maxResp"} {
		if !strings.Contains(simOut, want) {
			t.Errorf("mcs-sim output missing %q:\n%s", want, simOut)
		}
	}
	exported, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var run struct {
		Completed int `json:"completed"`
		Episodes  []any
	}
	if err := json.Unmarshal(exported, &run); err != nil || run.Completed == 0 {
		t.Fatalf("exported run invalid: %v\n%s", err, exported)
	}

	// mcs-sim exit code 1 on misses: two colliding tight tasks.
	collide := `[
	 {"name":"a","crit":"LO","period":[20,20],"deadline":[5,5],"wcet":[4,4]},
	 {"name":"b","crit":"LO","period":[20,20],"deadline":[5,5],"wcet":[4,4]}]`
	_, _, err = runCLI(t, bin("mcs-sim"), []byte(collide), "-sync", "-horizon", "20", "-gantt", "0", "-")
	var exitErr *exec.ExitError
	if err == nil {
		t.Error("mcs-sim did not fail on deadline misses")
	} else if !errorsAs(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Errorf("mcs-sim miss exit: %v", err)
	}

	// mcs-sim -fleet refuses a horizon whose release bound the sampler
	// cannot index, with the reason, before it samples anything.
	_, errOut, err = runCLI(t, bin("mcs-sim"), []byte(example), "-fleet", "4", "-horizon", "4611686018427387904", "-")
	if err == nil {
		t.Error("mcs-sim -fleet accepted a 2^62-tick horizon")
	} else if !strings.Contains(errOut, "jobs per run") {
		t.Errorf("mcs-sim -fleet horizon refusal: %v\n%s", err, errOut)
	}

	// mcs-experiments: table1 in both formats.
	expOut, _, err := runCLI(t, bin("mcs-experiments"), nil, "-run", "table1")
	if err != nil {
		t.Fatalf("mcs-experiments: %v", err)
	}
	if !strings.Contains(expOut, "4/3") {
		t.Errorf("mcs-experiments table1:\n%s", expOut)
	}
	expJSON, _, err := runCLI(t, bin("mcs-experiments"), nil, "-run", "table1", "-json")
	if err != nil {
		t.Fatalf("mcs-experiments -json: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(expJSON), &decoded); err != nil {
		t.Fatalf("experiments JSON invalid: %v\n%s", err, expJSON)
	}

	// -workers must not change rendered output, and -bench-json must
	// produce a valid per-experiment stats report.
	benchPath := filepath.Join(dir, "bench.json")
	seq, _, err := runCLI(t, bin("mcs-experiments"), nil,
		"-run", "fig6,fig7", "-sets", "4", "-grid", "3", "-workers", "1")
	if err != nil {
		t.Fatalf("mcs-experiments -workers 1: %v", err)
	}
	parl, _, err := runCLI(t, bin("mcs-experiments"), nil,
		"-run", "fig6,fig7", "-sets", "4", "-grid", "3", "-workers", "4", "-bench-json", benchPath)
	if err != nil {
		t.Fatalf("mcs-experiments -workers 4: %v", err)
	}
	if seq != parl {
		t.Errorf("mcs-experiments output differs between -workers 1 and 4:\n--- w=1 ---\n%s\n--- w=4 ---\n%s", seq, parl)
	}
	benchData, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workers     int `json:"workers"`
		Experiments []struct {
			Experiment string  `json:"experiment"`
			Seconds    float64 `json:"seconds"`
			Corpus     int     `json:"corpus"`
		} `json:"experiments"`
		TotalSecs float64 `json:"totalSeconds"`
	}
	if err := json.Unmarshal(benchData, &bench); err != nil {
		t.Fatalf("bench-json invalid: %v\n%s", err, benchData)
	}
	if bench.Workers != 4 || len(bench.Experiments) != 2 || bench.TotalSecs <= 0 {
		t.Errorf("bench-json report incomplete: %+v", bench)
	}
	for _, e := range bench.Experiments {
		if e.Corpus <= 0 {
			t.Errorf("bench-json %s: corpus %d, want > 0", e.Experiment, e.Corpus)
		}
	}

	// mcs-tradeoff on the example.
	tradeoff, _, err := runCLI(t, bin("mcs-tradeoff"), []byte(example), "-cap", "2", "-budget", "100", "-")
	if err != nil {
		t.Fatalf("mcs-tradeoff: %v", err)
	}
	for _, want := range []string{"minimal degradation", "y sweep"} {
		if !strings.Contains(tradeoff, want) {
			t.Errorf("mcs-tradeoff output missing %q:\n%s", want, tradeoff)
		}
	}

	// Malformed input is rejected with a non-zero exit.
	if _, _, err := runCLI(t, bin("mcs-analyze"), []byte(`{"not":"a set"}`), "-"); err == nil {
		t.Error("mcs-analyze accepted malformed input")
	}
}

// errorsAs is a tiny local stand-in to avoid importing errors just for
// one call site.
func errorsAs(err error, target **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}
