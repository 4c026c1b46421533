package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcsketch/internal/debugapi"
	"dcsketch/internal/export"
	"dcsketch/internal/server"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// startDaemon runs the daemon with the given extra flags and returns its
// bound addresses. It is stopped via t.Cleanup.
func startDaemon(t *testing.T, extra ...string) (serveAddr, debugAddr net.Addr) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	readyCh := make(chan [2]net.Addr, 1)
	args := append([]string{"-listen", "127.0.0.1:0", "-status-every", "0"}, extra...)
	go func() {
		done <- run(args, stop, func(sa, da net.Addr) { readyCh <- [2]net.Addr{sa, da} })
	}()
	t.Cleanup(func() {
		stop <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop")
		}
	})
	select {
	case addrs := <-readyCh:
		return addrs[0], addrs[1]
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	panic("unreachable")
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// metricValue extracts the value of an exact series name from Prometheus
// text exposition; -1 if the series is absent.
func metricValue(body []byte, series string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// exportBatch ships one batch to the daemon at addr through a fresh edge
// exporter and waits until the daemon has acked it.
func exportBatch(t *testing.T, addr string, batch []wire.Update) {
	t.Helper()
	exp, err := export.New(export.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Export(batch); err != nil {
		t.Fatal(err)
	}
	if err := exp.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetrySmoke is the end-to-end scrape: start the daemon with
// -debug-addr, drive a batch through an exporter and a query through a
// client connection, and check the /metrics exposition parses and reports
// the activity, and pprof answers.
func TestTelemetrySmoke(t *testing.T) {
	serveAddr, debugAddr := startDaemon(t, "-debug-addr", "127.0.0.1:0", "-check-interval", "64", "-min-frequency", "10")
	if debugAddr == nil {
		t.Fatal("no debug address despite -debug-addr")
	}

	batch := make([]wire.Update, 500)
	for i := range batch {
		batch[i] = wire.Update{Src: uint32(i), Dst: 443, Delta: 1}
	}
	exportBatch(t, serveAddr.String(), batch)
	c, err := server.Dial(serveAddr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.TopK(3); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, "http://"+debugAddr.String()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	for series, min := range map[string]float64{
		"dcsketch_server_updates_total":                    500,
		`dcsketch_server_frames_total{type="seq_updates"}`: 1,
		`dcsketch_server_frames_total{type="topk_query"}`:  1,
		"dcsketch_monitor_updates_total":                   500,
		"dcsketch_monitor_checks_total":                    1,
		"dcsketch_sketch_queries_total":                    1,
		"dcsketch_sketch_decode_singletons_total":          1,
		"dcsketch_sketch_decode_failures_total":            1,
		"dcsketch_sketch_levels_nonempty":                  1,
		"dcsketch_sketch_sample_size":                      1,
		"dcsketch_server_query_latency_ns_count":           1,
		"dcsketch_monitor_check_latency_ns_count":          1,
		"dcsketch_runtime_heap_live_bytes":                 1,
		"dcsketch_runtime_goroutines":                      1,
		"dcsketch_runtime_mutex_wait_ns_total":             0,
	} {
		if got := metricValue(body, series); got < min {
			t.Errorf("%s = %v, want >= %v", series, got, min)
		}
	}
	// The sketch allocates counters only for the levels traffic reached.
	if got := metricValue(body, "dcsketch_sketch_levels_allocated"); got < 1 || got > 64 {
		t.Errorf("dcsketch_sketch_levels_allocated = %v, want in [1, 64]", got)
	}
	// The tracking floor is a level, and its move counters are exported.
	if got := metricValue(body, "dcsketch_sketch_tracking_floor"); got < 0 || got > 63 {
		t.Errorf("dcsketch_sketch_tracking_floor = %v, want in [0, 63]", got)
	}
	for _, series := range []string{
		"dcsketch_sketch_tracking_floor_raises_total",
		"dcsketch_sketch_tracking_floor_lowers_total",
	} {
		if got := metricValue(body, series); got < 0 {
			t.Errorf("%s absent from /metrics", series)
		}
	}
	// Zero-valued series are still exported (a scrape must show the full
	// inventory, not only what already happened).
	for _, series := range []string{
		"dcsketch_sketch_checksum_rejects_total",
		"dcsketch_sketch_structural_rejects_total",
		"dcsketch_server_oversized_frames_total",
	} {
		if got := metricValue(body, series); got != 0 {
			t.Errorf("%s = %v, want present and 0", series, got)
		}
	}

	code, _ = httpGet(t, "http://"+debugAddr.String()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

// TestDebugTraceAndAlertsSmoke drives sequenced traffic and then an
// alerting flood through a real exporter, and checks the flight-recorder
// endpoints answer: /debug/trace reconstructs the batch's server-side
// lifecycle and /debug/alerts serves the evidence ledger.
func TestDebugTraceAndAlertsSmoke(t *testing.T) {
	serveAddr, debugAddr := startDaemon(t, "-debug-addr", "127.0.0.1:0", "-check-interval", "64", "-min-frequency", "10")

	// Sequenced path: a real exporter gives the batch a (session, seq)
	// identity the recorder keys on.
	exp, err := export.New(export.Config{Addr: serveAddr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	batch := make([]wire.Update, 64)
	for i := range batch {
		batch[i] = wire.Update{Src: uint32(i), Dst: 80, Delta: 1}
	}
	if err := exp.Export(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for exp.Stats().BatchesAcked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never acked")
		}
		time.Sleep(5 * time.Millisecond)
	}

	url := fmt.Sprintf("http://%s/debug/trace?session=%d&seq=1", debugAddr, exp.SessionID())
	code, body := httpGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", code, body)
	}
	var dump tracelog.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("trace dump: %v\n%s", err, body)
	}
	stages := map[string]bool{}
	for _, ev := range dump.Events {
		stages[ev.Stage] = true
	}
	for _, want := range []string{"server-decode", "server-apply", "server-ack"} {
		if !stages[want] {
			t.Errorf("trace of acked batch missing stage %s: %+v", want, dump.Events)
		}
	}
	if code, _ := httpGet(t, "http://"+debugAddr.String()+"/debug/trace?session=nope"); code != http.StatusBadRequest {
		t.Errorf("malformed trace query status %d, want 400", code)
	}

	// Alerting path: flood one destination past the -min-frequency floor.
	flood := make([]wire.Update, 500)
	for i := range flood {
		flood[i] = wire.Update{Src: uint32(1000 + i), Dst: 443, Delta: 1}
	}
	exportBatch(t, serveAddr.String(), flood)
	code, body = httpGet(t, "http://"+debugAddr.String()+"/debug/alerts")
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts status %d", code)
	}
	var evs []debugapi.EvidenceRecord
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("alerts list: %v\n%s", err, body)
	}
	if len(evs) == 0 {
		t.Fatal("flood raised no evidence")
	}
	found := false
	for _, ev := range evs {
		if ev.Dest == 443 && len(ev.TopK) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no evidence names the victim: %s", body)
	}
	code, body = httpGet(t, fmt.Sprintf("http://%s/debug/alerts/%d", debugAddr, evs[0].ID))
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts/{id} status %d: %s", code, body)
	}
	var one debugapi.EvidenceRecord
	if err := json.Unmarshal(body, &one); err != nil || one.ID != evs[0].ID {
		t.Fatalf("by-id entry mismatch: %v %s", err, body)
	}
}

// TestRelayTierDebugSmoke is the relay tier's debug surface end to end: a
// relay-tier daemon with -debug-addr forwards one batch to the global tier,
// and its /metrics carries the upstream exporter's ledger, its /debug/trace
// shows the upstream half of the hop for the relay's own session, and
// /debug/alerts answers.
func TestRelayTierDebugSmoke(t *testing.T) {
	global, globalAddr := startGlobal(t)
	relayAddr, debugAddr := startDaemon(t, "-upstream", globalAddr, "-debug-addr", "127.0.0.1:0")
	sendThrough(t, relayAddr.String(), 5, 1, 1)

	// The relay's upstream session is the one the global tier applied.
	var session uint64
	deadline := time.Now().Add(5 * time.Second)
	for session == 0 {
		for _, ev := range global.Tracer().Events(nil) {
			if ev.Stage == tracelog.StageServerApply {
				session = ev.Session
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never delivered upstream")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The upstream ack lands on the relay after the global apply.
	var body []byte
	for {
		var code int
		code, body = httpGet(t, "http://"+debugAddr.String()+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		if metricValue(body, "dcsketch_export_batches_acked_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay /metrics never showed the upstream ack:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := telemetry.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for series, want := range map[string]float64{
		"dcsketch_export_batches_enqueued_total": 1,
		"dcsketch_export_updates_acked_total":    3,
		"dcsketch_server_batches_total":          1,
	} {
		if got := metricValue(body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	code, body := httpGet(t, fmt.Sprintf("http://%s/debug/trace?session=%d&seq=1", debugAddr, session))
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", code, body)
	}
	var dump tracelog.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("trace dump: %v\n%s", err, body)
	}
	stages := map[string]bool{}
	for _, ev := range dump.Events {
		stages[ev.Stage] = true
	}
	for _, want := range []string{"export-enqueue", "export-send", "export-ack"} {
		if !stages[want] {
			t.Errorf("relay trace of upstream (session %d, seq 1) missing stage %s: %+v", session, want, dump.Events)
		}
	}

	if code, body := httpGet(t, "http://"+debugAddr.String()+"/debug/alerts"); code != http.StatusOK {
		t.Fatalf("/debug/alerts status %d: %s", code, body)
	}
}
