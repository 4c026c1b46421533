package server

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/monitor"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/wire"
)

func monCfg() monitor.Config {
	return monitor.Config{Sketch: dcs.Config{Buckets: 64, Seed: 5}}
}

// restoreInto builds a fresh server from cfg, restores st into it, and
// starts it listening.
func restoreInto(t *testing.T, cfg Config, st *snapshot.State) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, addr.String()
}

// TestSnapshotRestoreRoundTrip drives sequenced batches into a server,
// snapshots it, restores into a fresh server, and checks the restart
// contract: identical query state, the old replay horizon echoed on hello,
// and a retransmitted pre-crash batch acked without being re-applied.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// shards=0 is the inline ingest path, the server's only one; the
	// subtest keeps the name it had beside the retired sharded case.
	t.Run("shards=0", func(t *testing.T) {
		cfg := Config{Monitor: monCfg()}
		srv, addr := startServer(t, cfg)
		sc := dialSess(t, addr)
		if got := sc.hello(77); got != 0 {
			t.Fatalf("fresh horizon = %d", got)
		}
		for seq := uint64(1); seq <= 5; seq++ {
			sc.seqSend(seq, batchOf(4, uint32(seq), 1))
		}
		want := srv.TopK(10)
		st, err := srv.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		srv.Shutdown()

		srv2, addr2 := restoreInto(t, cfg, st)
		if got := srv2.TopK(10); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("restored TopK = %v, want %v", got, want)
		}
		sc2 := dialSess(t, addr2)
		if got := sc2.hello(77); got != 5 {
			t.Fatalf("restored horizon = %d, want 5", got)
		}
		// A retransmit of an applied batch: acked, not re-applied.
		sc2.seqSend(5, batchOf(4, 5, 1))
		if got := srv2.TopK(10); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("TopK after duplicate replay = %v, want %v", got, want)
		}
		if ss := srv2.Stats(); ss.DuplicateBatches != 1 {
			t.Fatalf("DuplicateBatches = %d, want 1", ss.DuplicateBatches)
		}
		// New traffic continues from the restored state.
		sc2.seqSend(6, batchOf(4, 6, 1))
		if got := srv2.TopK(10); len(got) != 6 {
			t.Fatalf("TopK after new batch has %d entries, want 6", len(got))
		}
	})
}

// TestSnapshotRefusedAfterServe pins RestoreState's precondition.
func TestSnapshotRefusedAfterServe(t *testing.T) {
	srv, _ := startServer(t, Config{Monitor: monCfg()})
	if err := srv.RestoreState(&snapshot.State{}); err == nil {
		t.Fatal("RestoreState after Listen did not fail")
	}
}

// TestSnapshotConfigMismatchRejected pins the sketch-config guard: a
// snapshot from a differently dimensioned collector must not restore.
func TestSnapshotConfigMismatchRejected(t *testing.T) {
	srv, err := New(Config{Monitor: monCfg()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Monitor: monitor.Config{Sketch: dcs.Config{Buckets: 32, Seed: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(st); err == nil {
		t.Fatal("mismatched sketch config restored without error")
	}
}

// TestSnapshotAtomicWithHorizons is the tear test for the snapshot gate:
// while one session streams sequenced batches (batch seq carries its own
// destination, so the sketch reveals exactly which batches it contains),
// concurrent snapshots are captured live. Every snapshot must satisfy
// "sketch contents == batches 1..horizon" — a destination acked before the
// capture can neither be missing from the restored sketch (lost-acked) nor
// present beyond the horizon (double-apply after restore). Presence is the
// assertion, not the exact estimate: DCS distinct counts carry sketch
// noise, membership of the tracked set does not at this load.
func TestSnapshotAtomicWithHorizons(t *testing.T) {
	cfg := Config{Monitor: monitor.Config{Sketch: dcs.Config{Buckets: 256, Seed: 5}}}
	srv, addr := startServer(t, cfg)

	const batches = 60
	var stop atomic.Bool
	var snaps []*snapshot.State
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			st, err := srv.SnapshotState()
			if err != nil {
				t.Error(err)
				return
			}
			snaps = append(snaps, st)
			// Breathe between captures: the write lock starves the stream
			// (and the point is snapshots interleaved with traffic, not a
			// lock-contention benchmark).
			time.Sleep(2 * time.Millisecond)
		}
	}()

	sc := dialSess(t, addr)
	sc.hello(31)
	for seq := uint64(1); seq <= batches; seq++ {
		sc.seqSend(seq, batchOf(3, uint32(seq), 1))
	}
	stop.Store(true)
	wg.Wait()

	// Sample the captures evenly; each check boots a full restored server.
	stride := 1
	if len(snaps) > 32 {
		stride = len(snaps) / 32
	}
	checked := 0
	for i := 0; i < len(snaps); i += stride {
		st := snaps[i]
		var horizon uint64
		if st.Sessions != nil {
			for _, h := range st.Sessions.Horizons {
				if h.ID == 31 {
					horizon = h.LastSeq
				}
			}
		}
		srv2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv2.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		got := srv2.TopK(batches + 1)
		if uint64(len(got)) != horizon {
			t.Fatalf("snapshot at horizon %d restores %d destinations", horizon, len(got))
		}
		seen := map[uint32]bool{}
		for _, e := range got {
			if e.Dest == 0 || uint64(e.Dest) > horizon {
				t.Fatalf("snapshot at horizon %d holds dest %d (f=%d): batch beyond the promised horizon",
					horizon, e.Dest, e.F)
			}
			seen[e.Dest] = true
		}
		if uint64(len(seen)) != horizon {
			t.Fatalf("snapshot at horizon %d holds %d distinct dests: an acked batch is missing",
				horizon, len(seen))
		}
		srv2.Shutdown()
		checked++
	}
	if checked == 0 {
		t.Fatal("no snapshots captured during the stream")
	}
}

// TestSessionEvictionRacingSnapshot is the satellite-3 regression test:
// many sessions churn through a small LRU table (forcing evictions) while
// snapshots are captured live. No captured horizon may ever be wider than
// what the server actually acked for that session, no snapshot may exceed
// the table bound, and restoring any snapshot into the bounded table must
// keep at most the bound's most-recently-used entries — the dedup window
// can only ever narrow across a crash, never widen.
func TestSessionEvictionRacingSnapshot(t *testing.T) {
	const maxSessions = 4
	cfg := Config{Monitor: monCfg(), MaxSessions: maxSessions}
	srv, addr := startServer(t, cfg)

	const sessions = 16
	var acked [sessions + 1]atomic.Uint64 // highest seq acked per session id
	var stop atomic.Bool
	var snapErr atomic.Value
	captured := make([][]snapshot.SessionHorizon, 0, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			st, err := srv.SnapshotState()
			if err != nil {
				snapErr.Store(err)
				return
			}
			if st.Sessions != nil {
				captured = append(captured, st.Sessions.Horizons)
			}
		}
	}()

	// Four workers interleave sessions 1..16 over the 4-slot table; every
	// lookup of a cold session evicts the LRU one.
	var clients sync.WaitGroup
	for w := 0; w < 4; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			sc := dialSess(t, addr)
			for round := 0; round < 30; round++ {
				id := uint64(w*4 + round%4 + 1)
				sc.hello(id)
				// Sequences grow per (session, worker-round); the table
				// keeps the max it acked.
				seq := uint64(round + 1)
				sc.seqSend(seq, batchOf(2, uint32(id), 1))
				for {
					prev := acked[id].Load()
					if seq <= prev || acked[id].CompareAndSwap(prev, seq) {
						break
					}
				}
			}
		}(w)
	}
	clients.Wait()
	stop.Store(true)
	wg.Wait()
	if err, ok := snapErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
	if len(captured) == 0 {
		t.Fatal("no snapshots captured during the churn")
	}

	for _, horizons := range captured {
		if len(horizons) > maxSessions {
			t.Fatalf("snapshot holds %d horizons, table bound is %d", len(horizons), maxSessions)
		}
		seen := map[uint64]bool{}
		for _, h := range horizons {
			if seen[h.ID] {
				t.Fatalf("snapshot holds session %d twice", h.ID)
			}
			seen[h.ID] = true
			if h.ID == 0 || h.ID > sessions {
				t.Fatalf("snapshot holds unknown session %d", h.ID)
			}
			if max := acked[h.ID].Load(); h.LastSeq > max {
				t.Fatalf("snapshot promises session %d horizon %d, server only ever acked %d",
					h.ID, h.LastSeq, max)
			}
		}
	}

	// Restoring the widest capture into an even smaller table keeps only
	// the most-recently-used entries and counts the rest as evicted.
	widest := captured[0]
	for _, h := range captured {
		if len(h) > len(widest) {
			widest = h
		}
	}
	small := newSessionTable(2)
	small.restore(widest)
	if small.len() > 2 {
		t.Fatalf("restore into bound-2 table kept %d sessions", small.len())
	}
	if len(widest) > 2 && small.evicted != uint64(len(widest)-2) {
		t.Fatalf("restore evicted %d, want %d", small.evicted, len(widest)-2)
	}
	for i, h := range widest[:small.len()] {
		el, ok := small.m[h.ID]
		if !ok {
			t.Fatalf("restore dropped MRU entry %d (session %d)", i, h.ID)
		}
		if got := el.Value.(*session).lastSeq; got != h.LastSeq {
			t.Fatalf("session %d restored horizon %d, want %d", h.ID, got, h.LastSeq)
		}
	}
}

// TestRestoredServerIngestsLikeFreshSketch restores a snapshot into a fresh
// server and keeps ingesting churn over two sessions: the restored one and a
// fresh Client's. The restored sketch is a new object, so the batches the
// server locates with the monitor's original Locator now meet a sketch with
// an equal config but other hash-table instances. The server's top-k must
// equal that of a fresh sketch fed only the live pairs.
func TestRestoredServerIngestsLikeFreshSketch(t *testing.T) {
	cfg := Config{Monitor: monCfg()}
	pair := func(i int) wire.Update { return wire.Update{Src: uint32(7919 * i), Dst: uint32(i % 13)} }
	frames := func(insFrom, insTo, delFrom, delTo int) [][]wire.Update {
		var ups []wire.Update
		for i := insFrom; i < insTo; i++ {
			u := pair(i)
			u.Delta = 1
			ups = append(ups, u)
		}
		for i := delFrom; i < delTo; i++ {
			u := pair(i)
			u.Delta = -1
			ups = append(ups, u)
		}
		var out [][]wire.Update
		for len(ups) > 0 {
			n := min(len(ups), 500)
			out = append(out, ups[:n])
			ups = ups[n:]
		}
		return out
	}

	srv, addr := startServer(t, cfg)
	sc := dialSess(t, addr)
	sc.hello(3)
	seq := uint64(0)
	for _, f := range frames(0, 2000, 0, 500) {
		seq++
		sc.seqSend(seq, f)
	}
	st, err := srv.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()

	srv2, addr2 := restoreInto(t, cfg, st)
	sc2 := dialSess(t, addr2)
	sc2.hello(3)
	for _, f := range frames(2000, 3500, 500, 1000) {
		seq++
		sc2.seqSend(seq, f)
	}
	c := dial(t, addr2)
	for _, f := range frames(3500, 4000, 1000, 1200) {
		if err := c.SendUpdates(f); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := tdcs.New(cfg.Monitor.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1200; i < 4000; i++ {
		u := pair(i)
		fresh.Update(u.Src, u.Dst, 1)
	}
	for _, k := range []int{1, 10, 13} {
		if got, want := srv2.TopK(k), fresh.TopK(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%d) after restore and ingest = %v, fresh sketch over the live pairs = %v", k, got, want)
		}
	}
}
