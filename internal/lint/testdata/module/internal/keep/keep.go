// Package keep launders arenas into package state: the round-trip
// test's direct escape, in a package the ignores package imports, so
// go vet runs the tool on it both as a dependency and on its own.
package keep

import "mcspeedup/internal/core"

var parked *core.Scratch

// Hold retains its parameter: the go vet run reports the store
// itself.
func Hold(s *core.Scratch) {
	parked = s
}

// Borrow only reads its parameter: callers stay clean.
func Borrow(s *core.Scratch) int {
	return core.Walk(s)
}
