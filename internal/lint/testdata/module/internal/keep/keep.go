// Package keep launders arenas into package state: the Borrows fact it
// exports on Hold is what the round-trip test watches crossing between
// packages, and so between unit invocations of the tool under go vet.
package keep

import "mcspeedup/internal/core"

var parked *core.Scratch

// Hold retains its parameter: fact Borrows{Retains:[0]}, plus a
// diagnostic at the store itself.
func Hold(s *core.Scratch) {
	parked = s
}

// Borrow only reads its parameter: no fact, callers stay clean.
func Borrow(s *core.Scratch) int {
	return core.Walk(s)
}
