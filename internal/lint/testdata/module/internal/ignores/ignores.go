// Package ignores exercises every state of //lint:ignore: one directive
// suppressing a real diagnostic, one stale, one malformed.
package ignores

import (
	"mcspeedup/internal/core"
	"mcspeedup/internal/keep"
)

var waived *core.Scratch

// Waived suppresses its escape with a justified directive: no report.
func Waived(s *core.Scratch) {
	//lint:ignore borrowcheck fixture pins the used-directive state
	waived = s
}

// Stale carries a directive with nothing to suppress: reported stale.
func Stale(s *core.Scratch) int {
	//lint:ignore borrowcheck fixture pins the stale-directive state
	return keep.Borrow(s)
}

// Bare is missing its justification: reported malformed, and
// suppressing nothing.
func Bare(s *core.Scratch) {
	//lint:ignore borrowcheck
	waived = s
}
