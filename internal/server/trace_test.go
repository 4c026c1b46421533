package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dcsketch/internal/debugapi"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// stagesOf collects the stage sequence of a trace.
func stagesOf(evs []tracelog.Event) []tracelog.Stage {
	out := make([]tracelog.Stage, len(evs))
	for i, ev := range evs {
		out[i] = ev.Stage
	}
	return out
}

func hasStage(evs []tracelog.Event, want tracelog.Stage) bool {
	for _, ev := range evs {
		if ev.Stage == want {
			return true
		}
	}
	return false
}

// TestTraceRecordsBatchLifecyclePipeline pins the recorded story of one
// sequenced batch through the server's ingest stages — decode, apply, ack —
// and a replay suppressed as a duplicate with the session horizon in aux.
func TestTraceRecordsBatchLifecyclePipeline(t *testing.T) {
	srv, addr := startServer(t, Config{})
	rc := dialSess(t, addr)
	rc.hello(77)
	rc.seqSend(1, batchOf(32, 443, 1))
	rc.seqSend(2, batchOf(32, 443, 1))
	rc.seqSend(2, batchOf(32, 443, 1)) // replay

	evs := srv.Tracer().Trace(77, 2, nil)
	for _, want := range []tracelog.Stage{
		tracelog.StageServerDecode, tracelog.StageServerApply,
		tracelog.StageServerAck, tracelog.StageServerDup,
	} {
		if !hasStage(evs, want) {
			t.Errorf("trace of (77,2) missing %v: %v", want, stagesOf(evs))
		}
	}
	// The duplicate's aux carries the dedup horizon (lastSeq at decision).
	for _, ev := range evs {
		if ev.Stage == tracelog.StageServerDup && ev.Aux != 2 {
			t.Errorf("dup horizon aux = %d, want 2", ev.Aux)
		}
	}
	// Connection-scoped events exist under the (0,0) key side of the ring.
	if !hasStage(srv.Tracer().Events(nil), tracelog.StageServerConnOpen) {
		t.Error("no conn-open event recorded")
	}
}

// TestTraceRecordsBatchLifecycleInline covers a single applied batch and
// the reject events: a sequenced batch before hello.
func TestTraceRecordsBatchLifecycleInline(t *testing.T) {
	srv, addr := startServer(t, Config{})

	// No-hello reject first, on its own connection.
	rcBad := dialSess(t, addr)
	typ, _ := rcBad.send(wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, 1, batchOf(4, 2, 1)))
	if typ != wire.MsgError {
		t.Fatalf("pre-hello seq batch reply = %v, want error", typ)
	}

	rc := dialSess(t, addr)
	rc.hello(99)
	rc.seqSend(1, batchOf(16, 80, 1))

	evs := srv.Tracer().Trace(99, 1, nil)
	for _, want := range []tracelog.Stage{
		tracelog.StageServerDecode, tracelog.StageServerApply, tracelog.StageServerAck,
	} {
		if !hasStage(evs, want) {
			t.Errorf("inline trace missing %v: %v", want, stagesOf(evs))
		}
	}

	found := false
	for _, ev := range srv.Tracer().Events(nil) {
		if ev.Stage == tracelog.StageServerDecodeReject && ev.Aux == tracelog.RejectNoHello {
			found = true
		}
	}
	if !found {
		t.Error("no-hello reject not recorded")
	}
}

// TestTraceScrapeDuringIngest is the -race contention test the observability
// contract requires: /debug/trace and /debug/alerts scrapes must be safe —
// and non-empty — while the server ingests at benchmark shape (a pipelined
// frame blaster plus a live sequenced session writing the same rings the
// scrapers read).
func TestTraceScrapeDuringIngest(t *testing.T) {
	srv, addr := startServer(t, Config{ReadTimeout: -1, WriteTimeout: -1})
	th := httptest.NewServer(tracelog.TraceHandler(srv.Tracer()))
	defer th.Close()
	ah := httptest.NewServer(debugapi.AlertsHandler(srv.Monitor()))
	defer ah.Close()

	const session = 4242
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Uint64

	// Benchmark-shaped load: a second session streams sequenced frames
	// without waiting for acks. Write errors after stop are expected (the
	// listener is dying).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { _, _ = io.Copy(io.Discard, conn) }()
	batch := batchOf(256, 443, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := bufio.NewWriterSize(conn, 1<<15)
		if err := wire.WriteFrame(w, wire.MsgHello, wire.AppendHello(nil, session+1)); err != nil {
			return
		}
		var payload []byte
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				_ = w.Flush()
				return
			default:
			}
			payload = wire.AppendSeqUpdates(payload[:0], seq, batch)
			if err := wire.WriteFrame(w, wire.MsgSeqUpdates, payload); err != nil {
				return
			}
		}
	}()

	// Concurrent scrapers: trace reads race the ring writers, alert reads
	// race the monitor's check cadence.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				if i == 0 {
					url = th.URL + "?session=" + strconv.Itoa(session) + "&seq=" + strconv.Itoa(1+seq%64)
				} else {
					url = ah.URL + "/debug/alerts"
				}
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && json.Valid(body) {
					scrapes.Add(1)
				}
			}
		}(i)
	}

	// The sequenced session runs on the test goroutine so its assertions
	// can t.Fatal; every 8th batch is replayed to keep dup events flowing.
	rc := dialSess(t, addr)
	rc.hello(session)
	for seq := uint64(1); seq <= 64; seq++ {
		rc.seqSend(seq, batch)
		if seq%8 == 0 {
			rc.seqSend(seq, batch)
		}
	}
	close(stop)
	wg.Wait()

	if scrapes.Load() == 0 {
		t.Fatal("no scrape succeeded during ingest")
	}
	// Assert on the newest batch: older seqs may have been evicted from
	// the connection's bounded ring by design (oldest-record eviction).
	evs := srv.Tracer().Trace(session, 64, nil)
	if !hasStage(evs, tracelog.StageServerDup) || !hasStage(evs, tracelog.StageServerApply) {
		t.Fatalf("mid-load trace incomplete: %v", stagesOf(evs))
	}
}
