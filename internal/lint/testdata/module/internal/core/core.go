// Package core is the arena owner of the round-trip fixture module — a
// minimal stand-in for the real mcspeedup/internal/core, free to manage
// its own Scratch without diagnostics.
package core

// Scratch mirrors the real single-goroutine walker arena.
type Scratch struct {
	depth int
}

// NewScratch allocates one arena.
func NewScratch() *Scratch { return &Scratch{} }

// Walk borrows the arena for the duration of the call only.
func Walk(s *Scratch) int {
	if s == nil {
		return 0
	}
	s.depth++
	return s.depth
}
