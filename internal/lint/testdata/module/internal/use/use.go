// Package use sits atop keep: its escape is visible only through the
// imported Borrows fact, making it the cross-package probe of the
// round-trip test.
package use

import (
	"mcspeedup/internal/core"
	"mcspeedup/internal/keep"
)

// Leak hands a fresh arena to the retaining helper — flagged via keep's
// Borrows fact.
func Leak() {
	s := core.NewScratch()
	keep.Hold(s)
}

// Clean borrows through the non-retaining helper: no diagnostic.
func Clean() int {
	return keep.Borrow(core.NewScratch())
}
