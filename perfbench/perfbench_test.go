package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mcspeedup/internal/core"
	"mcspeedup/internal/fleet"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
)

func smallConfig(workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		measure:  300 * time.Millisecond,
		trace:    trace,
		workers:  2,
		small:    true,
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and requires a correct result with every metric present.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(name, trace)
			if trace {
				cfg.spansDir = t.TempDir()
			}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			res, err := summarize(cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%t: %d of %d failed: %v", name, trace, res.Failed, res.Attempted, out.failures)
			}
			want := endToEnd
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			var buf bytes.Buffer
			if err := printResult(&buf, cfg, out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s trace=%t: last line is not the JSON result: %v", name, trace, err)
			}
			if trace {
				checkSpanFile(t, cfg, out)
			}
		}
	}
}

// checkSpanFile writes the run's spans and requires one parsable span
// per line, each inside its parent.
func checkSpanFile(t *testing.T, cfg config, out *outcome) {
	t.Helper()
	path := filepath.Join(cfg.spansDir, "spans.jsonl")
	if err := out.spans.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[[2]int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: bad span line %q: %v", cfg.workload, sc.Text(), err)
		}
		byID[[2]int{s.Worker, s.ID}] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", cfg.workload)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %s ends before it starts", cfg.workload, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := byID[[2]int{s.Worker, s.Parent}]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Op != p.Op {
			t.Errorf("%s: span %s is not inside its parent %s", cfg.workload, s.Name, p.Name)
		}
	}
}

// TestStreamsDeterministic: the same seed gives byte-identical corpora
// and request streams; another seed gives others.
func TestStreamsDeterministic(t *testing.T) {
	corpus := func(seed int64) []byte {
		c, err := buildZipfCorpus(seed, 24, 2)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := json.Marshal(requestStream(seed, pointZipfStage, 1, 200, 24))
		if err != nil {
			t.Fatal(err)
		}
		return append(bytes.Join(append(c.bodies, c.want...), nil), idx...)
	}
	sweepSets := func(seed int64) []byte {
		var all []byte
		for i := 0; i < 12; i++ {
			r, err := analyzeSweepSet(seed, i, new(core.Scratch), nil)
			if err != nil {
				t.Fatal(err)
			}
			data, err := r.prepared.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return all
	}
	replicates := func(seed int64) []byte {
		set, err := preparedFMS()
		if err != nil {
			t.Fatal(err)
		}
		p := fleetParams(set, seed, 0, 4, 1)
		var all []byte
		for r := 0; r < p.Runs; r++ {
			data, err := json.Marshal(sampleReplicate(nil, set, p.Seed, r, p.Horizon, gen.DefaultACET()))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return all
	}
	for name, inputs := range map[string]func(int64) []byte{"serve-zipf": corpus, "sweep": sweepSets, "fleet": replicates} {
		a, b, other := inputs(3), inputs(3), inputs(4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}
}

// TestReplicatesMirrorFleet: the replicate loop behind gen.workload_us
// and sim.run_us samples the same workloads as the fleet engine.
func TestReplicatesMirrorFleet(t *testing.T) {
	set, err := preparedFMS()
	if err != nil {
		t.Fatal(err)
	}
	p := fleetParams(set, 9, 0, 40, 1)
	sum, err := fleet.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var jobs int64
	for r := 0; r < p.Runs; r++ {
		jobs += int64(len(sampleReplicate(nil, set, p.Seed, r, p.Horizon, gen.DefaultACET())))
	}
	if jobs != sum.JobsReleased {
		t.Errorf("replicate loop released %d jobs, the fleet %d", jobs, sum.JobsReleased)
	}
}

// TestChecksCatchCorruption: each correctness check rejects a
// deliberately corrupted output and accepts the real one.
func TestChecksCatchCorruption(t *testing.T) {
	corrupt := func(b []byte) []byte {
		c := bytes.Clone(b)
		c[len(c)/2] ^= 1
		return c
	}

	t.Run("serve-zipf", func(t *testing.T) {
		c, err := buildZipfCorpus(1, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := c.want[0]
		if err := checkServed(200, want, want); err != nil {
			t.Fatal(err)
		}
		if checkServed(200, corrupt(want), want) == nil {
			t.Error("corrupted body accepted")
		}
		if checkServed(429, want, want) == nil {
			t.Error("429 accepted")
		}
		if checkPhaseSum(0.3) == nil || checkPhaseSum(1.5) == nil || checkPhaseSum(0.95) != nil {
			t.Error("phase-sum check misjudges its tolerance")
		}
	})

	t.Run("sweep", func(t *testing.T) {
		var r sweepSet
		var err error
		// Set 0 is a Fig. 6 set at U = 0.4: finite Δ_R at both speeds.
		if r, err = analyzeSweepSet(1, 0, new(core.Scratch), nil); err != nil {
			t.Fatal(err)
		}
		if err := checkSweepSet(r); err != nil {
			t.Fatal(err)
		}
		tweak := rat.New(1, 1000)
		corruptions := map[string]func(*sweepSet){
			"LO verdict":    func(r *sweepSet) { r.loOK = false },
			"s_min raised":  func(r *sweepSet) { r.sp.Speedup = r.sp.Speedup.Add(tweak) },
			"s_min lowered": func(r *sweepSet) { r.sp.Speedup = r.sp.Speedup.Sub(tweak) },
			"Δ_R raised": func(r *sweepSet) {
				r.reset[1].Reset = core.ClosedFormReset(r.prepared, sweepResetSpeeds[1]).Add(rat.One)
			},
			"Δ_R infinite":    func(r *sweepSet) { r.reset[0].Reset = rat.PosInf },
			"MinimalY set":    func(r *sweepSet) { r.ySet = r.shaped },
			"x window":        func(r *sweepSet) { r.xLo = r.xLo.Add(tweak) },
			"x window failed": func(r *sweepSet) { r.xErr = os.ErrInvalid },
		}
		for name, corrupt := range corruptions {
			c := r
			corrupt(&c)
			if checkSweepSet(c) == nil {
				t.Errorf("%s: corrupted result accepted", name)
			}
		}
	})

	t.Run("fleet", func(t *testing.T) {
		set, err := preparedFMS()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := fleet.Run(fleetParams(set, 1, 0, 16, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFleetSummary(sum, 16); err != nil {
			t.Fatal(err)
		}
		for name, corrupt := range map[string]func(*fleet.Summary){
			"bound violation": func(s *fleet.Summary) { s.BoundViolations = 1 },
			"deadline miss":   func(s *fleet.Summary) { s.Misses = 1 },
			"run count":       func(s *fleet.Summary) { s.Runs-- },
		} {
			c := *sum
			corrupt(&c)
			if checkFleetSummary(&c, 16) == nil {
				t.Errorf("%s: corrupted summary accepted", name)
			}
		}
	})
}

// TestMetricNamesMatchBenchmarkJSON: every metric and workload the
// program reports is declared in BENCHMARK.json with the same unit, and
// nothing else is.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(kind string, declared []metric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
		}
		byName := map[string]metric{}
		for _, m := range declared {
			byName[m.Name] = m
		}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
			m, ok := byName[d.name]
			if !ok || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: %s (%s, %s) not declared as such in BENCHMARK.json: %+v", kind, d.name, d.unit, d.better, m)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}
