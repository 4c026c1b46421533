package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"dcsketch/internal/telemetry"
	"dcsketch/internal/wire"
)

// rawConn dials addr without the Client wrapper so tests can write
// malformed frames byte-for-byte.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn, bufio.NewReader(conn)
}

// expectError sends one frame and requires a MsgError reply on the same
// connection within a few seconds (the in-band error path keeps the
// connection alive).
func expectError(t *testing.T, conn net.Conn, r *bufio.Reader, typ wire.MsgType, payload []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, msg, err := wire.ReadFrame(r)
	if err != nil || reply != wire.MsgError {
		t.Fatalf("reply to bad %v frame = (%v, %q, %v), want MsgError", typ, reply, msg, err)
	}
}

// TestProtocolErrorsByType drives every in-band protocol-error path over a
// real connection and checks each lands in its own ErrorsByType slot. The
// frames are sent while the test holds the ingest lock: counting an error
// must never wait on it.
func TestProtocolErrorsByType(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, r := rawConn(t, addr)

	func() {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		// Truncated MsgSeqUpdates: seq 1, count says 1 update, body is empty.
		expectError(t, conn, r, wire.MsgSeqUpdates, []byte{1, 1})
		// Malformed MsgTopKQuery: trailing garbage after the varint.
		expectError(t, conn, r, wire.MsgTopKQuery, []byte{1, 0xff})
		// Defined frame types that are not valid requests.
		expectError(t, conn, r, wire.MsgSeqAck, wire.AppendSeqAck(nil, 1))
		expectError(t, conn, r, wire.MsgTopKReply, nil)
		expectError(t, conn, r, wire.MsgError, []byte("client-side error"))
		// Undefined type byte: counted as unknown, not attributed to a type.
		expectError(t, conn, r, wire.MsgType(200), []byte("??"))
	}()

	st := srv.Stats()
	wantErrs := map[wire.MsgType]uint64{
		wire.MsgSeqUpdates: 1,
		wire.MsgTopKQuery:  1,
		wire.MsgTopKReply:  1,
		wire.MsgSeqAck:     1,
		wire.MsgError:      1,
	}
	for typ, want := range wantErrs {
		if got := st.ErrorsByType[typ]; got != want {
			t.Errorf("ErrorsByType[%v] = %d, want %d", typ, got, want)
		}
	}
	if st.UnknownFrames != 1 {
		t.Errorf("UnknownFrames = %d, want 1", st.UnknownFrames)
	}
	// Total in-band errors: 5 typed + 1 unknown.
	if st.ProtocolErrors != 6 {
		t.Errorf("ProtocolErrors = %d, want 6", st.ProtocolErrors)
	}
	// Every read frame is counted by type regardless of outcome.
	wantFrames := map[wire.MsgType]uint64{
		wire.MsgSeqUpdates: 1,
		wire.MsgTopKQuery:  1,
		wire.MsgTopKReply:  1,
		wire.MsgSeqAck:     1,
		wire.MsgError:      1,
	}
	for typ, want := range wantFrames {
		if got := st.FramesByType[typ]; got != want {
			t.Errorf("FramesByType[%v] = %d, want %d", typ, got, want)
		}
	}
}

// waitForStats polls srv.Stats until cond accepts it (stat updates race the
// test past connection-drop paths, which have no in-band reply to sync on).
func waitForStats(t *testing.T, srv *Server, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats = %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversizedFrameCountedAndDropped writes a frame header whose length
// prefix exceeds MaxFrameSize: the server must count it separately from
// in-band protocol errors and drop the connection.
func TestOversizedFrameCountedAndDropped(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, r := rawConn(t, addr)

	var header [5]byte
	binary.LittleEndian.PutUint32(header[:4], wire.MaxFrameSize+1)
	header[4] = byte(wire.MsgSeqUpdates)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	// No resync is possible, so the connection must be dropped, not answered.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(r); err == nil {
		t.Fatal("server replied to an oversized frame instead of dropping")
	}
	st := waitForStats(t, srv, "oversized frame", func(st Stats) bool {
		return st.OversizedFrames == 1
	})
	if st.ProtocolErrors != 1 {
		t.Errorf("ProtocolErrors = %d, want 1", st.ProtocolErrors)
	}
	var typed uint64
	for _, n := range st.ErrorsByType {
		typed += n
	}
	if typed != 0 {
		t.Errorf("oversized frame leaked into ErrorsByType: %v", st.ErrorsByType)
	}
	// The header was rejected before the frame was read; nothing by type.
	if st.FramesByType[wire.MsgSeqUpdates] != 0 {
		t.Errorf("FramesByType[seq_updates] = %d, want 0", st.FramesByType[wire.MsgSeqUpdates])
	}
}

// TestConnLifecycleCounters exercises accept, reject (over MaxConns), and
// close accounting.
func TestConnLifecycleCounters(t *testing.T) {
	srv, addr := startServer(t, Config{MaxConns: 1})
	c1 := dial(t, addr)
	if err := c1.SendUpdates([]wire.Update{{Src: 1, Dst: 2, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ConnsAccepted != 1 || st.ConnsActive != 1 {
		t.Fatalf("after first conn: %+v", st)
	}

	c2, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.SendUpdates([]wire.Update{{Src: 1, Dst: 2, Delta: 1}}); err == nil {
		t.Fatal("connection over MaxConns served a request")
	}
	waitForStats(t, srv, "rejected conn", func(st Stats) bool {
		return st.ConnsRejected == 1
	})

	_ = c1.Close()
	st = waitForStats(t, srv, "closed conn", func(st Stats) bool {
		return st.ConnsClosed == 1 && st.ConnsActive == 0
	})
	if st.ConnsAccepted != 1 {
		t.Errorf("ConnsAccepted = %d, want 1", st.ConnsAccepted)
	}
}

// TestServerTelemetry registers the server on a registry, drives good and
// bad traffic, and checks the exported series.
func TestServerTelemetry(t *testing.T) {
	srv, addr := startServer(t, Config{})
	reg := telemetry.NewRegistry()
	srv.RegisterTelemetry(reg)

	c := dial(t, addr)
	if err := c.SendUpdates([]wire.Update{{Src: 1, Dst: 443, Delta: 1}, {Src: 2, Dst: 443, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK(1); err != nil {
		t.Fatal(err)
	}
	conn, r := rawConn(t, addr)
	expectError(t, conn, r, wire.MsgTopKQuery, []byte{1, 0xff})

	vals := map[string]float64{}
	hists := map[string]*telemetry.HistogramSnapshot{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
		hists[s.Name] = s.Hist
	}
	for name, want := range map[string]float64{
		"dcsketch_server_updates_total":                             2,
		"dcsketch_server_batches_total":                             1,
		"dcsketch_server_queries_total":                             1,
		`dcsketch_server_frames_total{type="seq_updates"}`:          1,
		`dcsketch_server_frames_total{type="topk_query"}`:           2,
		`dcsketch_server_protocol_errors_total{type="topk_query"}`:  1,
		`dcsketch_server_protocol_errors_total{type="seq_updates"}`: 0,
		"dcsketch_server_conns_accepted_total":                      2,
		"dcsketch_server_conns_active":                              2,
		"dcsketch_server_unknown_frames_total":                      0,
		"dcsketch_server_oversized_frames_total":                    0,
	} {
		if vals[name] != want {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	// The good query was timed by the live bundle; the malformed one bailed
	// out before the observation.
	if h := hists["dcsketch_server_query_latency_ns"]; h == nil || h.Count != 1 {
		t.Errorf("query latency hist = %+v, want 1 observation", h)
	}
	// Monitor telemetry rides along with the server's registration.
	if vals["dcsketch_monitor_updates_total"] != 2 {
		t.Errorf("monitor updates_total = %v, want 2", vals["dcsketch_monitor_updates_total"])
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheusText([]byte(sb.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}
