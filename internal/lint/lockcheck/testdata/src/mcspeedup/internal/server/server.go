// Package server is a minimal stub of mcspeedup/internal/server for the
// lockcheck testdata: the blocking-under-mutex cases in flagged and
// clean form.
package server

import (
	"context"
	"sync"

	"mcspeedup/internal/gate"
	"mcspeedup/internal/par"
)

// Server mirrors the real server's bookkeeping next to its admission
// pool.
type Server struct {
	mu     sync.Mutex
	misses map[string]int
	pool   *par.Pool
}

// record is the clean bookkeeping form: short, straight-line critical
// section with nothing blocking inside.
func (s *Server) record(key string) {
	s.mu.Lock()
	s.misses[key]++
	s.mu.Unlock()
}

// admitUnderLock blocks on pool admission inside the critical section.
func (s *Server) admitUnderLock(ctx context.Context, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.Acquire(ctx); err != nil { // want `while holding a mutex`
		return err
	}
	s.misses[key]++
	return nil
}

// admitViaHelperUnderLock blocks two frames deep — the admission hides
// inside gate.Admit, and only its Blocks fact reveals it.
func (s *Server) admitViaHelperUnderLock(ctx context.Context, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses[key]++
	return gate.Admit(ctx) // want `while holding a mutex`
}

// admitViaChainUnderLock blocks three frames deep, through the
// laundered helper.
func (s *Server) admitViaChainUnderLock(ctx context.Context, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses[key]++
	return gate.AdmitVia(ctx) // want `while holding a mutex`
}

// disciplinedAdmit admits first, then takes the lock: clean.
func (s *Server) disciplinedAdmit(ctx context.Context, key string) error {
	if err := s.pool.Acquire(ctx); err != nil {
		return err
	}
	defer s.pool.Release()
	s.mu.Lock()
	s.misses[key]++
	s.mu.Unlock()
	return nil
}

// admitUnlocked releases the lock before admitting: clean.
func (s *Server) admitUnlocked(ctx context.Context, key string) error {
	s.mu.Lock()
	s.misses[key]++
	s.mu.Unlock()
	return s.pool.Acquire(ctx)
}

// lockedLaunch defines the flight under the lock but runs it later:
// the literal's body starts with no lock held, so the admission inside
// is clean (the singleflight pattern).
func (s *Server) lockedLaunch(ctx context.Context, key string) func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses[key]++
	return func() error {
		return s.pool.Acquire(ctx)
	}
}
