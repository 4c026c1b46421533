package server

import (
	"bufio"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcsketch/internal/tdcs"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/wire"
)

// sessConn opens a frame-level connection for driving the protocol by hand.
type sessConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialSess(t *testing.T, addr string) *sessConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &sessConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (rc *sessConn) send(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	rc.t.Helper()
	if err := wire.WriteFrame(rc.conn, typ, payload); err != nil {
		rc.t.Fatal(err)
	}
	rtyp, rpayload, err := wire.ReadFrame(rc.r)
	if err != nil {
		rc.t.Fatal(err)
	}
	return rtyp, rpayload
}

func (rc *sessConn) hello(id uint64) uint64 {
	rc.t.Helper()
	typ, payload := rc.send(wire.MsgHello, wire.AppendHello(nil, id))
	if typ != wire.MsgHelloAck {
		rc.t.Fatalf("hello reply = %v (%q)", typ, payload)
	}
	last, err := wire.DecodeHelloAck(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return last
}

func (rc *sessConn) seqSend(seq uint64, updates []wire.Update) {
	rc.t.Helper()
	typ, payload := rc.send(wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, seq, updates))
	if typ != wire.MsgSeqAck {
		rc.t.Fatalf("seq reply = %v (%q)", typ, payload)
	}
	acked, err := wire.DecodeSeqAck(payload)
	if err != nil || acked != seq {
		rc.t.Fatalf("acked seq = %d (%v), want %d", acked, err, seq)
	}
}

func batchOf(n int, dst uint32, delta int64) []wire.Update {
	out := make([]wire.Update, n)
	for i := range out {
		out[i] = wire.Update{Src: uint32(5000 + i), Dst: dst, Delta: delta}
	}
	return out
}

func TestSessionHandshakeAndSequencedBatches(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rc := dialSess(t, addr)

	if last := rc.hello(77); last != 0 {
		t.Fatalf("fresh session lastAcked = %d, want 0", last)
	}
	rc.seqSend(1, batchOf(100, 443, 1))
	rc.seqSend(2, batchOf(50, 443, 1))

	st := srv.Stats()
	if st.Hellos != 1 || st.SeqBatches != 2 || st.Batches != 2 || st.Updates != 150 || st.DuplicateBatches != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SessionsActive != 1 {
		t.Fatalf("sessions active = %d", st.SessionsActive)
	}
}

func TestDuplicateBatchAckedNotReapplied(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rc := dialSess(t, addr)
	rc.hello(9)

	batch := batchOf(200, 80, 1)
	rc.seqSend(1, batch)
	// Retransmit the same sequence, as an exporter would after a lost ack:
	// it must be acked but not change the sketch.
	rc.seqSend(1, batch)
	rc.seqSend(1, batch)

	st := srv.Stats()
	if st.DuplicateBatches != 2 || st.Batches != 1 || st.Updates != 200 {
		t.Fatalf("stats = %+v", st)
	}
	// The sketch estimate carries its usual error, but re-applying the two
	// retransmissions would roughly triple it; anything near one batch
	// proves suppression.
	top := srv.TopK(1)
	if len(top) != 1 || top[0].Dest != 80 || top[0].F < 100 || top[0].F > 350 {
		t.Fatalf("TopK after duplicate suppression = %+v (estimate must be ~200, not ~600)", top)
	}
}

func TestSessionSurvivesReconnect(t *testing.T) {
	srv, addr := startServer(t, Config{})

	rc1 := dialSess(t, addr)
	rc1.hello(1234)
	rc1.seqSend(1, batchOf(10, 1, 1))
	rc1.seqSend(2, batchOf(10, 1, 1))
	rc1.conn.Close()

	// The replay horizon survives the connection: a new connection with the
	// same session ID learns lastAcked=2 and its retransmission of 1..2 is
	// suppressed.
	rc2 := dialSess(t, addr)
	if last := rc2.hello(1234); last != 2 {
		t.Fatalf("lastAcked after reconnect = %d, want 2", last)
	}
	rc2.seqSend(2, batchOf(10, 1, 1)) // duplicate
	rc2.seqSend(3, batchOf(10, 1, 1)) // fresh

	st := srv.Stats()
	if st.Batches != 3 || st.DuplicateBatches != 1 || st.Updates != 30 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestForwardErrorDropsBatchUnacked pins the Config.Forward error contract:
// a batch the tap refuses is neither applied nor acked, its connection is
// dropped, and the session horizon stays put, so the exporter's
// retransmission after reconnect applies once and only once.
func TestForwardErrorDropsBatchUnacked(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	var forwarded atomic.Int64
	srv, addr := startServer(t, Config{Forward: func(updates []wire.Update) error {
		if refuse.Swap(false) {
			return errors.New("upstream spool closed")
		}
		forwarded.Add(int64(len(updates)))
		return nil
	}})
	batch := batchOf(100, 443, 1)

	rc := dialSess(t, addr)
	rc.hello(7)
	if err := wire.WriteFrame(rc.conn, wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, 1, batch)); err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(rc.r)
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("refused batch: reply (%v, %q, %v), want the connection dropped", typ, payload, err)
	}
	st := srv.Stats()
	if st.ForwardErrors != 1 || st.Updates != 0 || st.Batches != 0 {
		t.Fatalf("after the refusal: stats = %+v", st)
	}
	if top := srv.TopK(5); len(top) != 0 {
		t.Fatalf("refused batch reached the sketch: top-k = %v", top)
	}

	// The horizon did not move, so the reconnecting exporter retransmits.
	rc = dialSess(t, addr)
	if last := rc.hello(7); last != 0 {
		t.Fatalf("horizon after a refused batch = %d, want 0", last)
	}
	rc.seqSend(1, batch)
	rc.seqSend(1, batch) // the ack was lost again: a duplicate
	st = srv.Stats()
	if st.Updates != 100 || st.Batches != 1 || st.DuplicateBatches != 1 || st.ForwardErrors != 1 {
		t.Fatalf("after the retransmissions: stats = %+v", st)
	}
	if st.SeqBatches != st.Batches+st.DuplicateBatches+st.ForwardErrors || st.SeqBatches != 3 {
		t.Fatalf("SeqBatches = %d, want Batches + DuplicateBatches + ForwardErrors = 3", st.SeqBatches)
	}
	if n := forwarded.Load(); n != int64(len(batch)) {
		t.Fatalf("forwarded %d updates, want the one applied batch of %d", n, len(batch))
	}
}

func TestSeqUpdatesWithoutHelloRejected(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rc := dialSess(t, addr)
	typ, payload := rc.send(wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, 1, batchOf(5, 2, 1)))
	if typ != wire.MsgError {
		t.Fatalf("reply = %v (%q), want MsgError", typ, payload)
	}
	st := srv.Stats()
	if st.Batches != 0 || st.Updates != 0 || st.ProtocolErrors == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The connection itself survives the in-band error.
	rc.hello(5)
	rc.seqSend(1, batchOf(5, 2, 1))
}

func TestSequenceGapsAreLegal(t *testing.T) {
	// Shedding exporters skip sequences; the server must apply any sequence
	// above the horizon, not insist on contiguity.
	srv, addr := startServer(t, Config{})
	rc := dialSess(t, addr)
	rc.hello(6)
	rc.seqSend(1, batchOf(10, 3, 1))
	rc.seqSend(5, batchOf(10, 3, 1))
	rc.seqSend(3, batchOf(10, 3, 1)) // below the horizon now: duplicate
	st := srv.Stats()
	if st.Batches != 2 || st.DuplicateBatches != 1 || st.Updates != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionTableLRUEviction(t *testing.T) {
	srv, addr := startServer(t, Config{MaxSessions: 2})
	rc := dialSess(t, addr)

	rc.hello(1)
	rc.seqSend(1, batchOf(1, 9, 1))
	rc.hello(2)
	rc.hello(3) // evicts session 1 (LRU)

	st := srv.Stats()
	if st.SessionsActive != 2 || st.SessionsEvicted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Session 1's replay state is gone: a fresh hello sees lastAcked 0.
	if last := rc.hello(1); last != 0 {
		t.Fatalf("evicted session lastAcked = %d, want 0", last)
	}
}

func TestEvictedSessionReconnectResetsHorizon(t *testing.T) {
	// The eviction boundary: once a session falls out of the LRU table its
	// replay horizon is forgotten, so a reconnect starts at lastAcked 0 and
	// a retransmission of an already-applied sequence is applied AGAIN, not
	// suppressed. That double-count is the documented cost of bounding the
	// table; this test pins it so it changes only deliberately.
	srv, addr := startServer(t, Config{MaxSessions: 2})
	rc := dialSess(t, addr)

	rc.hello(1)
	rc.seqSend(7, batchOf(10, 9, 1))
	rc.hello(2)
	rc.hello(3) // table is {1,2}; 3 evicts 1 (LRU)

	// Session 1 returns: its horizon is gone, so the server reports a fresh
	// lastAcked of 0 (re-inserting 1 evicts 2, the LRU now).
	if last := rc.hello(1); last != 0 {
		t.Fatalf("evicted session lastAcked = %d, want 0", last)
	}
	// The exporter, seeing lastAcked 0, replays sequence 7. With the dedup
	// state evicted this is indistinguishable from fresh data: it must be
	// applied, not counted as a duplicate.
	rc.seqSend(7, batchOf(10, 9, 1))

	st := srv.Stats()
	if st.Batches != 2 || st.DuplicateBatches != 0 || st.Updates != 20 {
		t.Fatalf("replayed batch after eviction: stats = %+v (want 2 applied batches, 0 duplicates, 20 updates)", st)
	}
	if st.SessionsEvicted != 2 {
		t.Fatalf("SessionsEvicted = %d, want 2 (session 1 by 3, then session 2 by 1's return)", st.SessionsEvicted)
	}
}

// TestRetiredFrameTypesRejected pins the retirement of the sequence-less
// update frame (type byte 1), the shipped-sketch frame (type byte 4) and
// their empty ack (type byte 5): each is answered like an undefined type —
// MsgError, counted as unknown, nothing applied — and telemetry registers
// no series for their reserved slots.
func TestRetiredFrameTypesRejected(t *testing.T) {
	srv, addr := startServer(t, Config{})
	reg := telemetry.NewRegistry()
	srv.RegisterTelemetry(reg)
	rc := dialSess(t, addr)
	rc.hello(42)
	rc.seqSend(1, batchOf(100, 443, 1))
	before := srv.TopK(5)

	edge, err := tdcs.New(srv.Monitor().Config().Sketch)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 300; i++ {
		edge.Update(i, 9, 1)
	}
	encoded, err := edge.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{1, wire.AppendUpdates(nil, batchOf(300, 80, 1))},
		{4, encoded},
		{5, nil},
	} {
		if typ, payload := rc.send(f.typ, f.payload); typ != wire.MsgError {
			t.Fatalf("reply to a type-%d frame = %v (%q), want MsgError", f.typ, typ, payload)
		}
	}

	st := srv.Stats()
	if st.Updates != 100 || st.Batches != 1 || st.UnknownFrames != 3 || st.ProtocolErrors != 3 {
		t.Fatalf("stats = %+v, want only the sequenced batch applied and 3 unknown frames", st)
	}
	for _, typ := range []wire.MsgType{1, 4, 5} {
		if st.FramesByType[typ] != 0 || st.ErrorsByType[typ] != 0 {
			t.Fatalf("retired types counted as defined: frames %v, errors %v", st.FramesByType, st.ErrorsByType)
		}
	}
	if got := srv.TopK(5); !reflect.DeepEqual(got, before) {
		t.Fatalf("TopK after retired frames = %v, want unchanged %v", got, before)
	}
	// The connection survives every rejection.
	rc.seqSend(2, batchOf(10, 443, 1))

	for _, s := range reg.Snapshot() {
		if strings.Contains(s.Name, `type="unknown"`) {
			t.Errorf("telemetry registered %s for a reserved slot", s.Name)
		}
		if s.Name == "dcsketch_server_unknown_frames_total" && s.Value != 3 {
			t.Errorf("%s = %v, want 3", s.Name, s.Value)
		}
	}
}

func TestSessionTableUnit(t *testing.T) {
	tab := newSessionTable(2)
	a := tab.lookup(1)
	a.lastSeq = 10
	tab.lookup(2).lastSeq = 20
	if got := tab.lookup(1); got.lastSeq != 10 {
		t.Fatalf("session 1 lastSeq = %d", got.lastSeq)
	}
	// 1 was just used, so inserting 3 must evict 2.
	tab.lookup(3)
	if tab.len() != 2 || tab.evicted != 1 {
		t.Fatalf("len=%d evicted=%d", tab.len(), tab.evicted)
	}
	// 1 survived the eviction with its state; re-creating 2 (which evicts 3,
	// the new LRU) starts from zero.
	if got := tab.lookup(1); got.lastSeq != 10 {
		t.Fatalf("session 1 lost its state: %d", got.lastSeq)
	}
	if got := tab.lookup(2); got.lastSeq != 0 {
		t.Fatalf("evicted session 2 kept lastSeq = %d", got.lastSeq)
	}
	if tab.len() != 2 || tab.evicted != 2 {
		t.Fatalf("final len=%d evicted=%d", tab.len(), tab.evicted)
	}
}
