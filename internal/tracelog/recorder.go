package tracelog

import (
	"sort"
	"sync"
	"time"
)

// Options configures a Recorder. The zero value is usable: 256 slots per
// ring, 64 retained released rings.
type Options struct {
	// SlotsPerRing is the per-ring record capacity; rounded up to a power of
	// two, minimum 16, default 256 (14 KiB of Events per ring).
	SlotsPerRing int
	// MaxRings bounds how many released rings are retained for postmortem
	// reads; the oldest released ring (and its history) is dropped beyond
	// it. Live rings are bounded by the caller (server MaxConns), not by
	// this knob. Default 64.
	MaxRings int
}

// Recorder owns a set of rings, the global event sequence and the coarse
// monotonic clock they share. All methods are safe for concurrent use.
type Recorder struct {
	gseq atomicU64pad // global event order, claimed by every Record
	now  atomicU64pad // coarse clock: ns since the clock base instant
	wall atomicI64pad // wall-clock UnixNano of the clock base (0: never started)

	mu        sync.Mutex // guards rings, free, clockStop
	rings     []*Ring    // every retained ring, acquisition order
	free      []*Ring    // released rings awaiting reuse, oldest first
	slotsPer  int
	maxRings  int
	clockStop func()
}

// New builds a Recorder.
func New(o Options) *Recorder {
	slots := o.SlotsPerRing
	if slots <= 0 {
		slots = 256
	}
	if slots < 16 {
		slots = 16
	}
	// Round up to a power of two so Record can mask instead of divide.
	p := 1
	for p < slots {
		p <<= 1
	}
	maxRings := o.MaxRings
	if maxRings <= 0 {
		maxRings = 64
	}
	return &Recorder{slotsPer: p, maxRings: maxRings}
}

// Acquire hands out a ring tagged writer, reusing a released ring (its
// prior records are retained as history — they carry their own keys) or
// allocating a fresh one. Never call it on a per-event path.
func (r *Recorder) Acquire(writer uint32) *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rg *Ring
	if n := len(r.free); n > 0 {
		rg = r.free[0]
		copy(r.free, r.free[1:])
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		rg = &Ring{rec: r, evs: make([]Event, r.slotsPer), mask: uint64(r.slotsPer - 1)}
		r.rings = append(r.rings, rg)
	}
	rg.mu.Lock()
	rg.writer = writer
	rg.mu.Unlock()
	return rg
}

// Release returns a ring to the free list once its writer is done with it.
// The ring's records stay readable (a postmortem usually concerns exactly
// the connections that just died) until the retention cap recycles or drops
// the ring.
func (r *Recorder) Release(rg *Ring) {
	if rg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free = append(r.free, rg)
	if len(r.free) <= r.maxRings {
		return
	}
	// Over the retention cap: forget the oldest released ring entirely.
	old := r.free[0]
	copy(r.free, r.free[1:])
	r.free[len(r.free)-1] = nil
	r.free = r.free[:len(r.free)-1]
	for i, known := range r.rings {
		if known == old {
			r.rings = append(r.rings[:i], r.rings[i+1:]...)
			break
		}
	}
}

// StartClock begins advancing the coarse clock every step (default 100µs
// when step <= 0) from a recorder-owned ticker goroutine. It is a no-op if
// the clock is already running. StopClock joins the goroutine.
func (r *Recorder) StartClock(step time.Duration) {
	if step <= 0 {
		step = 100 * time.Microsecond
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.clockStop != nil {
		return
	}
	base := time.Now()
	r.wall.Store(base.UnixNano())
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(step)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				r.now.Store(uint64(time.Since(base)))
			}
		}
	}()
	r.clockStop = func() {
		close(quit)
		<-done
	}
}

// StopClock stops and joins the clock goroutine started by StartClock.
func (r *Recorder) StopClock() {
	r.mu.Lock()
	stop := r.clockStop
	r.clockStop = nil
	r.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// SetNow pins the coarse clock to ns for deterministic tests. Do not mix
// with a running StartClock ticker.
func (r *Recorder) SetNow(ns uint64) { r.now.Store(ns) }

// Now returns the coarse clock's current reading in nanoseconds since base.
func (r *Recorder) Now() uint64 { return r.now.Load() }

// WallBase returns the wall-clock UnixNano of the clock base instant, or 0
// if the clock was never started.
func (r *Recorder) WallBase() int64 { return r.wall.Load() }

// GSeq returns the number of events recorded so far across all rings.
func (r *Recorder) GSeq() uint64 { return r.gseq.Load() }

// RingCount returns how many rings the recorder currently retains.
func (r *Recorder) RingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rings)
}

// snapshotRings copies the ring list so snapshots run outside the lock.
func (r *Recorder) snapshotRings() []*Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Ring(nil), r.rings...)
}

// Trace returns every retained event for the (session, seq) batch, merged
// across rings and sorted by global sequence — the exporter→server story of
// one batch.
func (r *Recorder) Trace(session, seq uint64, dst []Event) []Event {
	start := len(dst)
	var buf []Event
	for _, rg := range r.snapshotRings() {
		buf = rg.Snapshot(buf[:0])
		for _, ev := range buf {
			if ev.Session == session && ev.Seq == seq {
				dst = append(dst, ev)
			}
		}
	}
	sortEvents(dst[start:])
	return dst
}

// Events returns every retained event across all rings sorted by global
// sequence. It powers full-dump debugging (sketchtool trace -all).
func (r *Recorder) Events(dst []Event) []Event {
	start := len(dst)
	for _, rg := range r.snapshotRings() {
		dst = rg.Snapshot(dst)
	}
	sortEvents(dst[start:])
	return dst
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].GSeq < evs[j].GSeq })
}
