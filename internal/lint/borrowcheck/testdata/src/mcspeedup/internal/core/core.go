// Package core is a minimal stub of mcspeedup/internal/core for the
// borrowcheck testdata. The owner package manages its own arena freely:
// pools hold Scratch fields, helpers retain arenas in package state —
// none of it may produce diagnostics or Borrows facts. The only
// diagnostics here are walker.go's owner-side discipline cases.
package core

// Scratch mirrors the real single-goroutine walker arena.
type Scratch struct {
	inUse bool
}

// Options mirrors the real analysis options; its Scratch field is the
// sanctioned per-call channel.
type Options struct {
	Scratch *Scratch
}

// pool mirrors the owner-internal arena pool: clean inside core.
type pool struct {
	free []*Scratch
}

var sharedPool pool

// put retains its parameter in owner-package state: clean inside core,
// and must not export a Borrows fact (callers outside core stay clean).
func put(s *Scratch) {
	sharedPool.free = append(sharedPool.free, s)
}

// Analyze mirrors the real entry point threading a per-call arena.
func Analyze(o Options) int {
	if o.Scratch != nil {
		o.Scratch.inUse = true
		defer func() { o.Scratch.inUse = false }()
		defer put(o.Scratch)
	}
	return 0
}
