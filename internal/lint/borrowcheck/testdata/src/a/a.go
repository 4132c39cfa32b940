// Package a exercises borrowcheck's retention and sharing rules for
// the analysis arena (core.Scratch) from outside internal/core. A
// retaining helper in another package (package keep) is reported at
// its own store, not at the callers here, so this package needs no
// import of it.
package a

import (
	"mcspeedup/internal/core"
	"mcspeedup/internal/par"
)

type cachedAnalyzer struct {
	scratch *core.Scratch // want `stored in a struct field`
	arena   core.Scratch  // want `stored in a struct field`
	name    string
}

type options struct {
	o core.Options // the sanctioned per-call channel: clean
}

var cached *core.Scratch // package state the events below leak into

var scratchCh = make(chan *core.Scratch, 1)

func fanOutShared(n int) {
	sc := new(core.Scratch)
	_ = par.ForEach(n, 0, func(i int) error {
		touch(sc) // want `captured by a concurrently-launched function`
		return nil
	})
}

func goShared() {
	sc := new(core.Scratch)
	done := make(chan struct{})
	go func() {
		touch(sc) // want `captured by a concurrently-launched function`
		close(done)
	}()
	<-done
}

func goArg() {
	sc := new(core.Scratch)
	done := make(chan struct{})
	go runWorker(sc, done) // want `passed into a go statement`
	<-done
}

func cacheIt(s *core.Scratch) {
	cached = s // want `stored in a package-level variable`
}

func send(s *core.Scratch) {
	scratchCh <- s // want `sent on a channel`
}

func stash(s *core.Scratch, dst []*core.Scratch) {
	dst[0] = s // want `stored in a container element`
}

func passthrough(s *core.Scratch) *core.Scratch {
	return s // want `borrowed core.Scratch parameter returned`
}

func fresh() *core.Scratch {
	s := new(core.Scratch)
	return s // constructor returning a locally allocated arena: clean
}

type holder struct {
	s *core.Scratch // want `stored in a struct field`
}

func build(sc *core.Scratch) holder {
	return holder{s: sc} // want `stored in a composite literal`
}

func perWorker(n int) {
	_ = par.ForEach(n, 0, func(i int) error {
		sc := new(core.Scratch) // worker-local arena: clean
		touch(sc)
		return nil
	})
}

func perWorkerKeyedOptions(n int) {
	_ = par.ForEach(n, 0, func(i int) error {
		sc := new(core.Scratch)
		// The `Scratch:` key names the Options field, not a captured
		// variable — must stay clean (the experiments' warm-start
		// callbacks are built exactly like this).
		analyze(core.Options{Scratch: sc})
		return nil
	})
}

func analyze(core.Options) {}

func sequential() {
	sc := new(core.Scratch)
	touch(sc) // same-goroutine use: clean
}

func touch(*core.Scratch) {}

func runWorker(sc *core.Scratch, done chan struct{}) { close(done) }
