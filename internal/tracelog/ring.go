package tracelog

import "sync/atomic"

// slot is one 64-byte seqlock record. Every field is an atomic so the
// single writer and any number of concurrent readers stay race-free: the
// writer bumps ver to odd, stores the payload, and bumps ver back to even;
// a reader that observes an odd or changed ver discards its copy. The
// trailing pad keeps one slot per cache line so neighboring writers (in
// distinct rings) never false-share.
type slot struct {
	ver     atomic.Uint64 // seqlock version: odd while the writer is mid-store
	gseq    atomic.Uint64
	ts      atomic.Uint64
	session atomic.Uint64
	seq     atomic.Uint64
	meta    atomic.Uint64 // packMeta(stage, writer, n)
	aux     atomic.Uint64
	_       [8]byte // pad to 64 bytes
}

// Ring is one single-writer event ring. Exactly one goroutine may call
// Record (the exporter loop under its mutex or a server connection
// handler); Snapshot may run concurrently from any goroutine. When the
// ring wraps, the oldest record is evicted whole — never torn.
type Ring struct {
	rec    *Recorder
	slots  []slot
	mask   uint64
	head   atomic.Uint64 // ordinal of the next record; valid range [head-len, head)
	writer atomic.Uint64 // writer tag stamped into every record's meta word
}

// Record appends one event. It is the flight recorder's hot path: a global
// sequence claim, a coarse clock read, and seven atomic stores — no
// allocation, no locks, no time syscalls.
//
//lint:allocfree
func (r *Ring) Record(st Stage, session, seq uint64, n uint32, aux uint64) {
	g := r.rec.gseq.Add(1)
	ts := r.rec.now.Load()
	h := r.head.Load()
	s := &r.slots[h&r.mask]
	s.ver.Add(1) // odd: payload unstable
	s.gseq.Store(g)
	s.ts.Store(ts)
	s.session.Store(session)
	s.seq.Store(seq)
	s.meta.Store(packMeta(st, uint32(r.writer.Load()), n))
	s.aux.Store(aux)
	s.ver.Add(1) // even: payload stable
	r.head.Store(h + 1)
}

// Writer returns the ring's writer tag.
func (r *Ring) Writer() uint32 { return uint32(r.writer.Load()) }

// Len returns how many records the ring currently retains.
func (r *Ring) Len() int {
	h := r.head.Load()
	if n := uint64(len(r.slots)); h > n {
		return int(n)
	}
	return int(h)
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Snapshot appends every stable record to dst, oldest ordinal first, and
// returns the extended slice. A slot the writer overtakes mid-read is either
// re-read as the newer record it now holds or, if it stays unstable across a
// few attempts, skipped — a snapshot never contains a torn record.
func (r *Ring) Snapshot(dst []Event) []Event {
	head := r.head.Load()
	start := uint64(0)
	if n := uint64(len(r.slots)); head > n {
		start = head - n
	}
	for i := start; i < head; i++ {
		if ev, ok := readSlot(&r.slots[i&r.mask]); ok {
			dst = append(dst, ev)
		}
	}
	return dst
}

// readSlot copies one slot under its seqlock. ok is false when the slot was
// never written or the writer kept lapping the read.
func readSlot(s *slot) (Event, bool) {
	for attempt := 0; attempt < 4; attempt++ {
		v := s.ver.Load()
		if v == 0 || v&1 != 0 {
			continue
		}
		var ev Event
		ev.GSeq = s.gseq.Load()
		ev.TS = s.ts.Load()
		ev.Session = s.session.Load()
		ev.Seq = s.seq.Load()
		ev.Stage, ev.Writer, ev.N = unpackMeta(s.meta.Load())
		ev.Aux = s.aux.Load()
		if s.ver.Load() != v {
			continue
		}
		if ev.Stage == StageInvalid || ev.Stage >= stageCount {
			return Event{}, false
		}
		return ev, true
	}
	return Event{}, false
}
