package lockcheck_test

import (
	"testing"

	"mcspeedup/internal/lint/linttest"
	"mcspeedup/internal/lint/lockcheck"
)

func TestLockcheckBlockingUnderMutex(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/server", lockcheck.Analyzer)
}
