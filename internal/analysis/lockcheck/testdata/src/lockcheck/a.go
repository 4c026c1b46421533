// Package lockcheck is golden-test input: a struct with mutex-guarded
// fields exercised by correctly and incorrectly locked methods.
package lockcheck

import (
	"sync"
	"sync/atomic"
)

// S carries guarded state.
type S struct {
	mu sync.Mutex
	rw sync.RWMutex

	// count is some counter.
	// guarded by mu
	count int

	items map[string]int // guarded by rw

	free int // unguarded: never reported

	// hits counts lookups with atomics, not guarded by mu: the negated
	// phrase is not an annotation.
	hits atomic.Int64
}

// NewS builds an S; composite-literal keys are not field accesses.
func NewS() *S {
	return &S{items: map[string]int{}}
}

func (s *S) locked() {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
}

func (s *S) lockedDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (s *S) unguardedWrite() {
	s.count++ // want `write to s.count without holding s.mu`
}

func (s *S) unguardedRead() int {
	return s.count // want `read of s.count without holding s.mu`
}

func (s *S) afterUnlock() {
	s.mu.Lock()
	s.count = 1
	s.mu.Unlock()
	s.count = 2 // want `write to s.count without holding s.mu`
}

// helper is documented as called with mu held.
//
//lint:locked mu
func (s *S) helper() int { return s.count }

func (s *S) readLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.items["a"]
}

func (s *S) writeUnderReadLock() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.items["a"] = 1 // want `write to s.items guarded by s.rw while holding only the read lock`
}

func (s *S) writeLock() {
	s.rw.Lock()
	defer s.rw.Unlock()
	s.items["a"] = 1
}

func (s *S) freeAccess() int {
	s.free = 9
	return s.free
}

func (s *S) suppressed() {
	s.count = 0 //lint:lockok single-threaded constructor path
}

func external(s *S) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func externalBad(s *S) int {
	return s.count // want `read of s.count without holding s.mu`
}

func (s *S) unlockedAtomic() int64 {
	return s.hits.Add(1)
}
