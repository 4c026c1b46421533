package export

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/faultnet"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// startServer boots a monitor daemon with a pinned sketch seed so two
// servers fed identical traffic hold byte-identical state.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Monitor.Sketch.Seed == 0 {
		cfg.Monitor = monitor.Config{Sketch: dcs.Config{Seed: 1}}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, addr.String()
}

// genBatches produces a deterministic traffic trace: batches of batchSize
// updates with rng-drawn flows concentrated on a few destinations.
func genBatches(seed uint64, batches, batchSize int) [][]wire.Update {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]wire.Update, batches)
	for i := range out {
		b := make([]wire.Update, batchSize)
		for j := range b {
			b[j] = wire.Update{
				Src:   uint32(rng.Next()),
				Dst:   uint32(rng.Next() % 16), // heavy-hitter-friendly key space
				Delta: int64(1 + rng.Next()%3),
			}
		}
		out[i] = b
	}
	return out
}

func TestExporterDeliversAndDrains(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	e, err := New(Config{Addr: addr, SessionID: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	traffic := genBatches(1, 10, 20)
	for _, b := range traffic {
		if err := e.Export(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BatchesAcked != 10 || st.UpdatesAcked != 200 || st.Retransmits != 0 || st.Reconnects != 0 || st.BatchesDropped != 0 {
		t.Fatalf("exporter stats = %+v", st)
	}
	if st.SendAttempts != st.BatchesAcked {
		t.Fatalf("fault-free run: attempts %d != acked %d", st.SendAttempts, st.BatchesAcked)
	}
	if ss := srv.Stats(); ss.Batches != 10 || ss.Updates != 200 || ss.Hellos != 1 || ss.DuplicateBatches != 0 {
		t.Fatalf("server stats = %+v", ss)
	}
}

func TestSpoolShedsOldestWhenUnreachable(t *testing.T) {
	unreachable := func(addr string, timeout time.Duration) (net.Conn, error) {
		return nil, errors.New("no route")
	}
	e, err := New(Config{
		Addr:         "example.invalid:1",
		Dial:         unreachable,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
		SpoolBatches: 4,
		SessionID:    2,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 10; i++ {
		if err := e.Export(genBatches(uint64(i+1), 1, 5)[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.BatchesDropped != 6 || st.UpdatesDropped != 30 {
		t.Fatalf("shedding stats = %+v, want 6 batches / 30 updates dropped", st)
	}
	if st.SpoolDepth != 4 {
		t.Fatalf("spool depth = %d, want the 4 freshest batches", st.SpoolDepth)
	}
	if err := e.Drain(10 * time.Millisecond); err == nil {
		t.Fatal("Drain succeeded with an unreachable server")
	}
	if st := e.Stats(); st.DialFailures == 0 {
		t.Fatal("no dial failures recorded against an unreachable server")
	}
}

// TestExportAllocs checks Export's allocations per batch: the batch record
// and its payload, encoded once into a buffer sized for it. The dial blocks
// until the test ends, so the delivery loop allocates nothing meanwhile.
func TestExportAllocs(t *testing.T) {
	release := make(chan struct{})
	blocked := func(addr string, timeout time.Duration) (net.Conn, error) {
		<-release
		return nil, errors.New("test over")
	}
	e, err := New(Config{Addr: "example.invalid:1", Dial: blocked, SessionID: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(release)

	batch := make([]wire.Update, 512)
	for i := range batch {
		batch[i] = wire.Update{Src: uint32(i), Dst: 80, Delta: 1 - 2*int64(i%2)}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Export(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Export of a 512-update batch = %v allocations, want <= 2", allocs)
	}
}

func TestExportAfterClose(t *testing.T) {
	e, err := New(Config{Addr: "example.invalid:1", SessionID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Export(genBatches(1, 1, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Export after Close = %v, want ErrClosed", err)
	}
	if err := e.Drain(time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestRegisterTelemetry(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	_ = srv
	e, err := New(Config{Addr: addr, SessionID: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := telemetry.NewRegistry()
	e.RegisterTelemetry(reg)

	if err := e.Export(genBatches(4, 1, 10)[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	if got["dcsketch_export_batches_acked_total"] != 1 || got["dcsketch_export_updates_enqueued_total"] != 10 {
		t.Fatalf("telemetry snapshot = %v", got)
	}
	if _, ok := got["dcsketch_export_spool_depth"]; !ok {
		t.Fatalf("spool depth gauge missing from %v", got)
	}
}

// TestChaosExactlyOnceUnderCuts is the acceptance e2e: a seeded faultnet
// schedule kills the exporter's connection mid-batch several times, and the
// monitor's final top-k must be byte-identical to a fault-free run over the
// same traffic, with the exporter's ledger accounting exactly for the
// injected faults.
func TestChaosExactlyOnceUnderCuts(t *testing.T) {
	const (
		batches   = 200
		batchSize = 50
		maxCuts   = 5
		topK      = 32
	)
	traffic := genBatches(99, batches, batchSize)

	run := func(t *testing.T, dial func(string, time.Duration) (net.Conn, error)) (*server.Server, Stats) {
		srv, addr := startServer(t, server.Config{})
		e, err := New(Config{
			Addr:           addr,
			Dial:           dial,
			AttemptTimeout: 2 * time.Second,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     20 * time.Millisecond,
			SpoolBatches:   batches, // no shedding: this test is about delivery, not loss
			SessionID:      7,
			Seed:           7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range traffic {
			if err := e.Export(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return srv, st
	}

	refSrv, refStats := run(t, nil)
	if refStats.Reconnects != 0 || refStats.Retransmits != 0 {
		t.Fatalf("reference run was not fault-free: %+v", refStats)
	}
	want := refSrv.TopK(topK)

	inj := faultnet.New(faultnet.Config{Seed: 42, CutAfter: 4096, MaxCuts: maxCuts})
	chaosSrv, st := run(t, inj.Dial)

	cuts := inj.Stats().Cuts
	if cuts != maxCuts {
		t.Fatalf("injected cuts = %d, want the full budget of %d", cuts, maxCuts)
	}

	// Exactly-once: every batch delivered despite the cuts, applied exactly
	// once, and the top-k is byte-identical to the fault-free run.
	got := chaosSrv.TopK(topK)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos top-%d diverged from fault-free run:\n got %+v\nwant %+v", topK, got, want)
	}
	if st.BatchesDropped != 0 || st.UpdatesDropped != 0 {
		t.Fatalf("chaos run shed batches: %+v", st)
	}
	if st.BatchesAcked != batches || st.UpdatesAcked != batches*batchSize {
		t.Fatalf("acked ledger = %+v, want all %d batches", st, batches)
	}

	// The ledger accounts exactly for the injected faults: every cut tore
	// down one live connection, and every send attempt is either a batch's
	// first try or a counted retransmit.
	if st.Reconnects != uint64(cuts) {
		t.Fatalf("reconnects = %d, cuts = %d", st.Reconnects, cuts)
	}
	if st.SendAttempts != st.BatchesAcked+st.Retransmits {
		t.Fatalf("attempts %d != acked %d + retransmits %d", st.SendAttempts, st.BatchesAcked, st.Retransmits)
	}
	if st.Hellos != uint64(cuts)+1 {
		t.Fatalf("hellos = %d, want one per (re)connect = %d", st.Hellos, cuts+1)
	}

	// Server side: applied + suppressed-duplicate partitions the sequenced
	// stream, and the applied half matches the fault-free totals exactly.
	ss := chaosSrv.Stats()
	if ss.Batches != batches || ss.Updates != batches*batchSize {
		t.Fatalf("server applied %d batches / %d updates, want %d / %d", ss.Batches, ss.Updates, batches, batches*batchSize)
	}
	if ss.Batches+ss.DuplicateBatches != ss.SeqBatches {
		t.Fatalf("applied %d + duplicates %d != sequenced %d", ss.Batches, ss.DuplicateBatches, ss.SeqBatches)
	}
}

// TestChaosReplayAfterReconnectPrunesSpool pins the hello-echo path: if the
// ack for an applied batch is lost to a cut, the reconnect handshake must
// prune it rather than resend it.
func TestChaosReplayAfterReconnectPrunesSpool(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	// A tight cut budget placed so the first cut lands around the first
	// batches' round trips.
	inj := faultnet.New(faultnet.Config{Seed: 3, CutAfter: 900, MaxCuts: 2})
	e, err := New(Config{
		Addr:           addr,
		Dial:           inj.Dial,
		AttemptTimeout: 2 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		SpoolBatches:   64,
		SessionID:      11,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, b := range genBatches(5, 20, 30) {
		if err := e.Export(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BatchesAcked != 20 || st.BatchesDropped != 0 {
		t.Fatalf("exporter stats = %+v", st)
	}
	ss := srv.Stats()
	if ss.Updates != 600 || ss.Batches != 20 {
		t.Fatalf("server applied %d updates in %d batches, want exactly-once 600/20", ss.Updates, ss.Batches)
	}
}

// TestChaosTraceReconstructsRetransmit is the flight-recorder acceptance e2e:
// after a seeded faultnet run kills connections mid-batch, the recorders alone
// — the exporter's ring plus the server's /debug/trace endpoint — must tell a
// killed batch's full story: enqueued, sent, connection cut, reconnect
// handshake, retransmitted, and applied exactly once with every replay
// suppressed by dedup.
func TestChaosTraceReconstructsRetransmit(t *testing.T) {
	const (
		batches   = 80
		batchSize = 50
		session   = 21
	)
	srv, addr := startServer(t, server.Config{})
	ts := httptest.NewServer(tracelog.TraceHandler(srv.Tracer()))
	defer ts.Close()

	inj := faultnet.New(faultnet.Config{Seed: 17, CutAfter: 4096, MaxCuts: 3})
	e, err := New(Config{
		Addr:           addr,
		Dial:           inj.Dial,
		AttemptTimeout: 2 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		SpoolBatches:   batches,
		SessionID:      session,
		Seed:           21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range genBatches(13, batches, batchSize) {
		if err := e.Export(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// The schedule is byte-deterministic, so a retransmit always happens;
	// losing it would silently retire this acceptance test.
	if inj.Stats().Cuts == 0 || st.Retransmits == 0 {
		t.Fatalf("seeded schedule produced no retransmit to reconstruct (cuts=%d, stats=%+v)", inj.Stats().Cuts, st)
	}

	// Exporter side: find a batch the cut killed mid-flight — two or more
	// send attempts for one seq — purely from the recorded events.
	expEvents := e.Tracer().Events(nil)
	sends := map[uint64]int{}
	for _, ev := range expEvents {
		if ev.Stage == tracelog.StageExportSend {
			sends[ev.Seq]++
		}
	}
	var victim uint64
	for seq, n := range sends {
		if n > 1 {
			victim = seq
		}
	}
	if victim == 0 {
		t.Fatalf("ledger counts %d retransmits but no seq has two send events", st.Retransmits)
	}

	// The exporter's timeline for the victim must read in causal order:
	// first send, then the connection cut, then the reconnect handshake,
	// then the resend. GSeq is the recorder-global total order.
	var firstSend, lastSend, cut, hello uint64
	for _, ev := range expEvents {
		switch {
		case ev.Stage == tracelog.StageExportSend && ev.Seq == victim:
			if firstSend == 0 {
				firstSend = ev.GSeq
			}
			lastSend = ev.GSeq
		case ev.Stage == tracelog.StageExportCut && ev.GSeq > firstSend && (cut == 0 || ev.GSeq < cut) && firstSend != 0:
			cut = ev.GSeq
		case ev.Stage == tracelog.StageExportHello && ev.GSeq > firstSend && (hello == 0 || ev.GSeq < hello) && firstSend != 0:
			hello = ev.GSeq
		}
	}
	if !(firstSend < cut && cut < hello && hello <= lastSend) {
		t.Fatalf("victim %d timeline out of order: send=%d cut=%d hello=%d resend=%d",
			victim, firstSend, cut, hello, lastSend)
	}

	// Server side, through the HTTP debug surface the incident responder
	// would actually use: /debug/trace must show the victim applied exactly
	// once, with any replay recorded as a suppressed duplicate.
	resp, err := http.Get(fmt.Sprintf("%s?session=%d&seq=%d", ts.URL, session, victim))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d (err %v): %s", resp.StatusCode, err, body)
	}
	var dump tracelog.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("trace dump: %v\n%s", err, body)
	}
	var applies, acks int
	for _, ev := range dump.Events {
		switch tracelog.StageFromString(ev.Stage) {
		case tracelog.StageServerApply:
			applies++
		case tracelog.StageServerAck:
			acks++
		}
	}
	if applies != 1 {
		t.Fatalf("victim %d applied %d times in server trace, want exactly once:\n%s", victim, applies, body)
	}
	if acks == 0 {
		t.Fatalf("victim %d has no server ack in trace:\n%s", victim, body)
	}

	// Exactly-once over the whole run, proven from the recorder rather than
	// the counters: every batch of the session has exactly one server-apply
	// event (per-connection rings retain the full run at this scale).
	applyCount := map[uint64]int{}
	for _, ev := range srv.Tracer().Events(nil) {
		if ev.Stage == tracelog.StageServerApply && ev.Session == session {
			applyCount[ev.Seq]++
		}
	}
	for seq := uint64(1); seq <= batches; seq++ {
		if applyCount[seq] != 1 {
			t.Fatalf("seq %d has %d apply events, want exactly 1", seq, applyCount[seq])
		}
	}
}
