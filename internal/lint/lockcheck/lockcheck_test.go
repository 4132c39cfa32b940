package lockcheck_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mcspeedup/internal/lint/linttest"
	"mcspeedup/internal/lint/lockcheck"
)

func TestLockcheckBlockingUnderMutex(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/server", lockcheck.Analyzer)
}

// TestLockcheckCanonicalOrderClean asserts the package establishing the
// lock order is itself clean (no want comments in the fixture).
func TestLockcheckCanonicalOrderClean(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/res", lockcheck.Analyzer)
}

func TestLockcheckCrossPackageCycle(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/uses", lockcheck.Analyzer)
}

// TestLockcheckFactsGolden pins the wire encoding of the upstream
// package's Locks facts — the acquisition sets and lock-order edges
// dependent packages are checked against.
func TestLockcheckFactsGolden(t *testing.T) {
	got := linttest.Facts(t, "testdata", "mcspeedup/internal/res", lockcheck.Analyzer)
	golden := filepath.Join("testdata", "res_facts.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("facts mismatch\n--- got ---\n%s--- want (%s) ---\n%s", got, golden, want)
	}
}
