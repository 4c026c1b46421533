package tracelog

import "sync"

// Ring is one event ring: a mutex-guarded slice of Events. Any goroutine
// may Record into it and any goroutine may Snapshot it. When the ring wraps,
// the oldest record is evicted.
type Ring struct {
	rec  *Recorder
	mask uint64

	mu sync.Mutex
	// evs holds the retained records; record ordinal i sits at i&mask.
	// guarded by mu
	evs []Event
	// head is the ordinal of the next record; the ring retains ordinals
	// [head-len(evs), head). guarded by mu
	head uint64
	// writer is the tag stamped into every record. guarded by mu
	writer uint32
}

// Record appends one event. It is the flight recorder's hot path: under the
// ring's lock, a global sequence claim, a coarse clock read and one Event
// store. Because the sequence is claimed under the lock, a ring's slot order
// is its gseq order.
//
//lint:allocfree
func (r *Ring) Record(st Stage, session, seq uint64, n uint32, aux uint64) {
	r.mu.Lock() //lint:allocok sync.Mutex does not allocate: a contended Lock parks on a runtime semaphore
	r.evs[r.head&r.mask] = Event{
		GSeq:    r.rec.gseq.Add(1),
		TS:      r.rec.now.Load(),
		Session: session,
		Seq:     seq,
		Stage:   st,
		Writer:  r.writer,
		N:       n,
		Aux:     aux,
	}
	r.head++
	r.mu.Unlock() //lint:allocok sync.Mutex does not allocate: Unlock at most wakes a parked waiter
}

// Writer returns the ring's writer tag.
func (r *Ring) Writer() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writer
}

// Snapshot appends every retained record to dst, oldest first, and returns
// the extended slice.
func (r *Ring) Snapshot(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.head <= uint64(len(r.evs)) {
		return append(dst, r.evs[:r.head]...)
	}
	oldest := r.head & r.mask
	dst = append(dst, r.evs[oldest:]...)
	return append(dst, r.evs[:oldest]...)
}
