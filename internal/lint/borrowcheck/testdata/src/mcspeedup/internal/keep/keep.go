// Package keep is the laundering helper of the borrowcheck testdata:
// it retains borrowed arenas in package state. The store is flagged
// where it happens, and the package's fixed point flags the helper
// that reaches it one call deeper.
package keep

import "mcspeedup/internal/core"

var global *core.Scratch

// Hold retains its parameter.
func Hold(s *core.Scratch) {
	global = s // want `stored in a package-level variable`
}

// HoldVia launders through Hold; the intra-package fixed point marks
// its parameter retained too.
func HoldVia(s *core.Scratch) {
	Hold(s) // want `escapes into mcspeedup/internal/keep.Hold`
}

// Use only borrows: callers stay clean.
func Use(s *core.Scratch) {
	if s != nil {
		_ = *s
	}
}

// HoldDeep launders two calls deep: only the fixed point marks
// HoldVia's parameter retained, so this call is flagged through it.
func HoldDeep(s *core.Scratch) {
	HoldVia(s) // want `escapes into mcspeedup/internal/keep.HoldVia`
}
