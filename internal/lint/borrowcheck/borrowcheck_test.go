package borrowcheck_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mcspeedup/internal/lint/borrowcheck"
	"mcspeedup/internal/lint/linttest"
)

func TestBorrowcheckCoreArena(t *testing.T) {
	linttest.Run(t, "testdata", "a", borrowcheck.Analyzer)
}

func TestBorrowcheckSimArena(t *testing.T) {
	linttest.Run(t, "testdata", "b", borrowcheck.Analyzer)
}

func TestBorrowcheckLaunderingPackage(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/keep", borrowcheck.Analyzer)
}

func TestBorrowcheckOwnerPackagesExempt(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/core", borrowcheck.Analyzer)
	linttest.Run(t, "testdata", "mcspeedup/internal/sim", borrowcheck.Analyzer)
}

// TestBorrowcheckWalkerDiscipline pins the owner-side rules inside
// internal/core: acquireWalker chased by defer releaseWalker, and no
// nested use of the borrowed Options.
func TestBorrowcheckWalkerDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/core", borrowcheck.Analyzer)
}

// TestBorrowcheckFactsGolden pins the wire encoding of the facts the
// laundering package exports: the modular-analysis contract consumed
// by every dependent package's pass (and by the on-disk cache).
func TestBorrowcheckFactsGolden(t *testing.T) {
	got := linttest.Facts(t, "testdata", "mcspeedup/internal/keep", borrowcheck.Analyzer)
	golden := filepath.Join("testdata", "keep_facts.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("facts mismatch\n--- got ---\n%s--- want (%s) ---\n%s", got, golden, want)
	}
}

// TestBorrowcheckOwnersExportNoFacts pins the exemption that keeps the
// rest of the module quiet: the arena owner packages retain their own
// arenas (pools) without publishing Borrows facts.
func TestBorrowcheckOwnersExportNoFacts(t *testing.T) {
	for _, path := range []string{"mcspeedup/internal/core", "mcspeedup/internal/sim"} {
		if got := linttest.Facts(t, "testdata", path, borrowcheck.Analyzer); string(got) != "[]\n" {
			t.Errorf("%s exports facts, want none:\n%s", path, got)
		}
	}
}
