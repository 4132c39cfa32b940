package server

import "sync"

// flight is one in-flight computation and the result its waiters share.
type flight struct {
	wg  sync.WaitGroup
	val []byte
	err error
}

// flightGroup coalesces concurrent work on the same key: the first
// caller of Do for a key becomes the leader and runs fn; every caller
// that arrives while the leader is still running waits and shares the
// leader's result. Once the leader returns, the key is forgotten — a later Do
// starts a fresh flight (result freshness is the caller's business; the
// server keeps results in its LRU, the group only collapses the herd
// that forms before the cache is populated).
//
// The zero value is ready to use.
type flightGroup struct {
	mu      sync.Mutex
	m       map[string]*flight
	flights uint64 // leaders: fn executions started
	dedup   uint64 // followers: calls that joined an existing flight
}

// flightStats is a snapshot of the coalescing counters.
type flightStats struct {
	// Flights counts executed computations (leaders).
	Flights uint64
	// Dedup counts calls that were coalesced onto an in-flight
	// computation instead of running their own.
	Dedup uint64
}

// Do runs fn once per concurrent set of callers with the same key and
// returns the shared result. shared reports whether this caller was a
// follower (its result came from another caller's flight).
//
// fn runs on the leader's goroutine with the leader's context, so a
// follower with a longer deadline can see the leader's context error;
// for pure, cacheable computations (this package's use) retrying such a
// shared error is always sound.
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if c, ok := g.m[key]; ok {
		g.dedup++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(flight)
	c.wg.Add(1)
	g.m[key] = c
	g.flights++
	g.mu.Unlock()

	func() {
		defer func() {
			// A panicking fn must not strand the followers: record the
			// panic as the shared error, release them, then re-raise so
			// the leader's recover boundary still sees it.
			if r := recover(); r != nil {
				c.err = &flightPanic{Value: r}
				g.finish(key, c)
				panic(r)
			}
		}()
		c.val, c.err = fn()
	}()
	g.finish(key, c)
	return c.val, false, c.err
}

// finish publishes the result and forgets the key.
func (g *flightGroup) finish(key string, c *flight) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
}

// Stats returns a snapshot of the coalescing counters.
func (g *flightGroup) Stats() flightStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return flightStats{Flights: g.flights, Dedup: g.dedup}
}

// flightPanic is the error followers of a flight receive when the
// leader's fn panicked.
type flightPanic struct{ Value any }

func (e *flightPanic) Error() string {
	return "server: coalesced computation panicked"
}
