package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline marshals a benchDoc with the given entries into a temp
// BENCH_core.json and returns its path.
func writeBaseline(t *testing.T, entries []benchEntry) string {
	t.Helper()
	doc := benchDoc{GoVersion: "go-test", Benchmarks: entries}
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

func TestCompareBaseline(t *testing.T) {
	base := []benchEntry{
		{Name: "MinSpeedupFMS", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 7},
		{Name: "Dropped", NsPerOp: 10, AllocsPerOp: 0},
	}
	path := writeBaseline(t, base)
	doc, err := readBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		fresh   []benchEntry
		nsFail  bool
		wantErr string // substring of the error, "" = no error
	}{
		{
			name: "within tolerance",
			fresh: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1100, AllocsPerOp: 0},
				{Name: "MinimalY", NsPerOp: 4000, AllocsPerOp: 7},
			},
			nsFail: true,
		},
		{
			name: "ns regression fails when gated",
			fresh: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1200, AllocsPerOp: 0},
			},
			nsFail:  true,
			wantErr: "MinSpeedupFMS: ns/op 1000 -> 1200",
		},
		{
			name: "ns regression warns when not gated",
			fresh: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1200, AllocsPerOp: 0},
			},
			nsFail: false,
		},
		{
			name: "alloc increase fails regardless of gate",
			fresh: []benchEntry{
				{Name: "MinimalY", NsPerOp: 100, AllocsPerOp: 8},
			},
			nsFail:  false,
			wantErr: "MinimalY: allocs/op 7 -> 8",
		},
		{
			name: "alloc decrease and new benchmark pass",
			fresh: []benchEntry{
				{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 3},
				{Name: "BrandNew", NsPerOp: 42, AllocsPerOp: 0},
			},
			nsFail: true,
		},
		{
			name: "boundary: exactly at tolerance passes",
			fresh: []benchEntry{
				{Name: "MinSpeedupFMS", NsPerOp: 1150, AllocsPerOp: 0},
			},
			nsFail: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBaseline(path, doc, tc.fresh, 0.15, tc.nsFail)
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
	err := run(c, func(config) benchDoc {
		t.Fatal("benchmarks ran before the baseline was read")
		return benchDoc{}
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
	path := writeBaseline(t, []benchEntry{{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 7}})
	fresh := benchDoc{GoVersion: "go-test", Benchmarks: []benchEntry{{Name: "MinimalY", NsPerOp: 5000, AllocsPerOp: 8}}}
	c := config{out: path, compare: path, compareTol: 0.15, compareNS: true}
	err := run(c, func(config) benchDoc { return fresh })
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
