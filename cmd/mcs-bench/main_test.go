package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// writeBaseline marshals doc into a temp BENCH_core.json and returns its
// path.
func writeBaseline(t *testing.T, doc benchDoc) string {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// entry is a row with the given ns/op samples, summarized as mcs-bench
// summarizes a run.
func entry(name string, allocs int64, ns ...float64) benchEntry {
	ss := make([]sample, len(ns))
	for i, v := range ns {
		ss[i] = sample{"ns/op": v, "allocs/op": float64(allocs)}
	}
	return newEntry(name, ss)
}

// xeon returns a document of rows taken on the baseline's machine.
func xeon(rows ...benchEntry) benchDoc {
	return benchDoc{results: results{GoVersion: "go-test", GoMaxProcs: 2, CPUModel: "Xeon", Benchmarks: rows}}
}

func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: mcspeedup/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkSessionEdit/fms-prepared/cHI-2         	   17667	     84970 ns/op	     896 B/op	       1 allocs/op
BenchmarkSessionEdit/fms-prepared/cHI-2         	   13741	     75065.5 ns/op	     896 B/op	       1 allocs/op
BenchmarkSample-2   	    3194	    372514 ns/op	        11.52 ns/job	       0 B/op	       0 allocs/op
BenchmarkRun	      31	  37296370 ns/op	   68488 B/op	      26 allocs/op
PASS
ok  	mcspeedup/internal/core	5.257s
`
	cpu, res := parseBench(out)
	if cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu %q", cpu)
	}
	want := map[string][]sample{
		"SessionEdit/fms-prepared/cHI": {
			{"ns/op": 84970, "B/op": 896, "allocs/op": 1},
			{"ns/op": 75065.5, "B/op": 896, "allocs/op": 1},
		},
		"Sample": {{"ns/op": 372514, "ns/job": 11.52, "B/op": 0, "allocs/op": 0}},
		"Run":    {{"ns/op": 37296370, "B/op": 68488, "allocs/op": 26}},
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("parsed %v\nwant   %v", res, want)
	}
	if _, res := parseBench("BenchmarkX-2 10 fast ns/op 0 B/op"); len(res) != 0 {
		t.Errorf("a line with a non-numeric value parsed as %v", res)
	}
}

func TestNewEntryMedianAndMAD(t *testing.T) {
	var ss []sample
	for _, s := range [][3]float64{{120, 8, 2}, {100, 8, 1}, {90, 16, 1}, {300, 8, 1}, {110, 8, 1}} {
		ss = append(ss, sample{"ns/op": s[0], "B/op": s[1], "allocs/op": s[2]})
	}
	e := newEntry("Row", ss)
	if e.NsPerOp != 110 || e.MADNsPerOp != 10 || e.BytesPerOp != 8 || e.AllocsPerOp != 1 {
		t.Errorf("got %+v, want median 110, MAD 10, 8 B/op, 1 allocs/op", e)
	}
	if got := (row{bench: "SessionEdit/fms-prepared/cHI"}).pattern(); got != `^BenchmarkSessionEdit$/^fms-prepared$/^cHI$` {
		t.Errorf("pattern %q", got)
	}
}

func TestCompareBaseline(t *testing.T) {
	base := xeon(
		entry("MinSpeedupFMS", 0, 1000, 1010, 990, 1020, 980),
		entry("MinimalY", 7, 5000, 5000, 5000, 5000, 5000),
		entry("Dropped", 0, 10),
	)
	path := writeBaseline(t, base)
	doc, err := readBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		fresh   benchDoc
		nsFail  bool
		wantErr string // substring of the error, "" = no error
	}{
		{
			name: "within tolerance", // the samples overlap
			fresh: xeon(
				entry("MinSpeedupFMS", 0, 1500, 1600, 1500, 1400, 1010),
				entry("MinimalY", 7, 4000, 4000, 4000, 4000, 4000),
			),
			nsFail: true,
		},
		{
			name:    "ns regression fails when gated",
			fresh:   xeon(entry("MinSpeedupFMS", 0, 1200, 1210, 1190, 1220, 1180)),
			nsFail:  true,
			wantErr: "MinSpeedupFMS: ns/op median 1000 -> 1200",
		},
		{
			name:   "ns regression warns when not gated",
			fresh:  xeon(entry("MinSpeedupFMS", 0, 1200, 1210, 1190, 1220, 1180)),
			nsFail: false,
		},
		{
			// The fastest fresh sample ties the slowest baseline sample.
			name:   "boundary: exactly at tolerance passes",
			fresh:  xeon(entry("MinSpeedupFMS", 0, 1020, 1210, 1190, 1220, 1180)),
			nsFail: true,
		},
		{
			name:    "alloc increase fails regardless of gate",
			fresh:   xeon(entry("MinimalY", 8, 100)),
			nsFail:  false,
			wantErr: "MinimalY: allocs/op 7 -> 8",
		},
		{
			name:   "alloc decrease and new benchmark pass",
			fresh:  xeon(entry("MinimalY", 3, 5000), entry("BrandNew", 0, 42)),
			nsFail: true,
		},
		{
			name: "other CPU model: ns/op skipped",
			fresh: benchDoc{results: results{GoMaxProcs: 2, CPUModel: "EPYC", Benchmarks: []benchEntry{
				entry("MinSpeedupFMS", 0, 9000, 9000, 9000, 9000, 9000)}}},
			nsFail: true,
		},
		{
			name: "other GOMAXPROCS: ns/op skipped, allocs/op still gated",
			fresh: benchDoc{results: results{GoMaxProcs: 4, CPUModel: "Xeon", Benchmarks: []benchEntry{
				entry("MinSpeedupFMS", 0, 9000, 9000, 9000, 9000, 9000),
				entry("MinimalY", 8, 5000)}}},
			nsFail:  true,
			wantErr: "MinimalY: allocs/op 7 -> 8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBaseline(path, doc, tc.fresh, tc.nsFail)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want regression containing %q, got none", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSlowerShiftsMedianPastMAD checks the claim slower rests on: the
// largest of 1 to 6 baseline samples lies at least one MAD above their
// median, so a run slower in every sample moves the median past the MAD.
func TestSlowerShiftsMedianPastMAD(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ns := make([]float64, 1+i%6)
		for j := range ns {
			ns[j] = float64(rnd.Intn(100))
		}
		if e := entry("Row", 0, ns...); slices.Max(ns)-e.NsPerOp < e.MADNsPerOp {
			t.Fatalf("samples %v: median %v, MAD %v", ns, e.NsPerOp, e.MADNsPerOp)
		}
	}
}

// TestSingleSampleBaseline reads a BENCH_core.json written before rows
// carried samples (one nsPerOp per row, iterations and a fig5Sweep
// object) and compares a sampled run against it: every old row is still
// a registry row, each reads as a single sample, and the rule still
// flags an all-slower run.
func TestSingleSampleBaseline(t *testing.T) {
	const path = "testdata/single_sample_BENCH_core.json"
	base, err := readBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := benchDoc{results: results{GoMaxProcs: base.GoMaxProcs, CPUModel: base.CPUModel}}
	for _, b := range base.Benchmarks {
		if !slices.ContainsFunc(rows, func(r row) bool { return r.name == b.Name }) {
			t.Errorf("baseline row %s is not a registry row", b.Name)
		}
		if s := b.nsSamples(); len(s) != 1 || s[0] != b.NsPerOp || b.NsPerOp <= 0 {
			t.Errorf("%s reads as samples %v", b.Name, s)
		}
		ns := b.NsPerOp
		fresh.Benchmarks = append(fresh.Benchmarks, entry(b.Name, b.AllocsPerOp, ns*0.9, ns, ns*1.1, ns*1.2, ns))
	}
	if len(base.Benchmarks) != 13 {
		t.Fatalf("%d rows, want the 13 single-sample rows", len(base.Benchmarks))
	}
	if err := compareBaseline(path, base, fresh, true); err != nil {
		t.Errorf("run straddling each single sample: %v", err)
	}
	fresh.Benchmarks[0] = entry(base.Benchmarks[0].Name, 0, 2e9, 2e9, 2e9, 2e9, 2e9)
	if err := compareBaseline(path, base, fresh, true); err == nil || !strings.Contains(err.Error(), "MinSpeedupFMS: ns/op") {
		t.Errorf("all-slower run against a single sample: err %v, want a ns/op regression", err)
	}
}

func TestCompareBaselineBadInputs(t *testing.T) {
	if _, err := readBenchDoc(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file: want error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("[1, 2]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchDoc(bad); err == nil {
		t.Error("non-document baseline: want error")
	}
	// A missing baseline fails the run before any benchmark runs.
	c := config{out: "-", compare: filepath.Join(t.TempDir(), "missing.json")}
	err := run(c, func() (benchDoc, error) {
		t.Fatal("benchmarks ran before the baseline was read")
		return benchDoc{}, nil
	})
	if err == nil {
		t.Error("run with a missing baseline: want error")
	}
}

// TestRunComparesAgainstBaselineBeforeOverwrite runs the command with
// -out and -compare naming the same file, the default BENCH_core.json
// case: the fresh numbers must be diffed against the file's old content,
// not against themselves after -out rewrote it.
func TestRunComparesAgainstBaselineBeforeOverwrite(t *testing.T) {
	path := writeBaseline(t, xeon(entry("MinimalY", 7, 5000)))
	fresh := xeon(entry("MinimalY", 8, 5000))
	c := config{out: path, compare: path, compareNS: true}
	err := run(c, func() (benchDoc, error) { return fresh, nil })
	if err == nil || !strings.Contains(err.Error(), "MinimalY: allocs/op 7 -> 8") {
		t.Fatalf("run err %v, want the allocs/op regression against the old baseline", err)
	}
	written, rerr := readBenchDoc(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(written.Benchmarks) != 1 || written.Benchmarks[0].AllocsPerOp != 8 {
		t.Fatalf("-out holds %+v, want the fresh numbers", written.Benchmarks)
	}
}

// TestRowsMatchOneBenchmark runs every row's benchmark once: each
// pattern must select exactly one benchmark, so a renamed Benchmark* or
// a pattern that also matches a sibling fails here instead of silently
// dropping a row.
func TestRowsMatchOneBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test once per row")
	}
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if seen[r.name] || seen[r.pkg+" "+r.bench] {
			t.Errorf("row %s or its benchmark %s is registered twice", r.name, r.bench)
		}
		seen[r.name], seen[r.pkg+" "+r.bench] = true, true
		if _, _, err := runRow(r, 1, "-benchtime", "1x"); err != nil {
			t.Error(err)
		}
	}
}
