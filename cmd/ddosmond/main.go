// Command ddosmond is the DDoS monitor daemon: it listens for the wire
// protocol (sequenced flow-update batches, top-k queries) from edge
// exporters, maintains the shared Tracking Distinct-Count Sketch, and prints
// alerts. This is the Fig. 1 DDoS MONITOR as a process.
//
// With -upstream the same daemon is the fabric's relay tier: it folds its
// edges' batches into a regional sketch and re-exports every accepted batch
// to the collector at -upstream through its own replay session, so a fleet
// fans in edge → regional → global with exactly-once application at each
// hop. The relay tier keeps its alerts on /debug/alerts and the status
// line instead of printing ALERT lines.
//
// Usage:
//
//	ddosmond -listen 127.0.0.1:7171 -min-frequency 200               # global tier
//	ddosmond -listen 127.0.0.1:7272 -upstream 127.0.0.1:7171 \
//	         -snapshot-dir /var/lib/dcsketch                          # relay tier
//
// Feed it with cmd/flowexport (replaying a trace) or any client speaking
// internal/wire. Stop with SIGINT/SIGTERM for a graceful drain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/debugapi"
	"dcsketch/internal/monitor"
	"dcsketch/internal/relay"
	"dcsketch/internal/server"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/trace"
	"dcsketch/internal/tracelog"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ddosmond:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a value arrives on stop. If ready
// is non-nil it is called once with the bound addresses (debugAddr is nil
// unless -debug-addr was given) — a seam for tests to discover ports.
func run(args []string, stop <-chan os.Signal, ready func(serveAddr, debugAddr net.Addr)) error {
	fs := flag.NewFlagSet("ddosmond", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:7171", "listen address")
		k        = fs.Int("k", 10, "top-k destinations tracked per check")
		minFreq  = fs.Int64("min-frequency", 64, "absolute alert floor (distinct sources)")
		interval = fs.Int("check-interval", 4096, "flow updates between tracking checks")
		seed     = fs.Uint64("seed", 1, "sketch seed (must match the whole fleet)")
		buckets  = fs.Int("s", 128, "second-level hash-table buckets (s)")
		tables   = fs.Int("r", 3, "second-level hash tables (r)")
		status   = fs.Duration("status-every", 10*time.Second, "status line period (0 disables)")
		debug    = fs.String("debug-addr", "", "telemetry listen address serving /metrics (Prometheus text), /debug/pprof, /debug/trace and /debug/alerts (empty disables)")
		snapDir  = fs.String("snapshot-dir", "", "directory for crash-safe state snapshots: restored on boot, written periodically and on graceful shutdown (empty disables)")
		snapSecs = fs.Duration("snapshot-interval", 30*time.Second, "period between crash-safe snapshots when -snapshot-dir is set (0 disables the timer; shutdown still flushes)")
		upstream = fs.String("upstream", "", "relay tier: collector address to re-export every accepted batch to (empty runs the global tier)")
		spool    = fs.Int("spool", 0, "relay tier: upstream spool bound in batches (0 = export default)")
		drain    = fs.Duration("drain-budget", 5*time.Second, "relay tier: how long shutdown may wait for the upstream spool to empty")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mcfg := monitor.Config{
		Sketch:        dcs.Config{Tables: *tables, Buckets: *buckets, Seed: *seed},
		K:             *k,
		CheckInterval: *interval,
		MinFrequency:  *minFreq,
	}

	// Restore precedes Listen: the replay horizons (and a relay's upstream
	// spool) must be in place before the first exporter's hello, or a
	// retransmitted batch the dead process already acked would be applied
	// twice. A missing file is a fresh start; a corrupt one is a hard error
	// — silently starting empty would break the very acked⇒durable promise
	// the snapshot exists for. Each tier keeps its own file name, so an
	// upgraded relay restores the file it already wrote.
	snapPath := ""
	var restored *snapshot.State
	if *snapDir != "" {
		name := "ddosmond.snapshot"
		if *upstream != "" {
			name = "ddosrelay.snapshot"
		}
		snapPath = filepath.Join(*snapDir, name)
		st, err := snapshot.ReadFile(snapPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// fresh start
		case err != nil:
			return fmt.Errorf("restore %s: %w", snapPath, err)
		default:
			restored = st
		}
	}

	// The tiers differ only in how they restore, capture, shut down and
	// report; everything else reads srv.
	var (
		srv     *server.Server
		rly     *relay.Relay
		capture func() (*snapshot.State, error)
		halt    func(drainBudget time.Duration)
		err     error
	)
	if *upstream == "" {
		if srv, err = server.New(server.Config{Monitor: mcfg, OnAlert: printAlert}); err != nil {
			return err
		}
		if restored != nil {
			if err := srv.RestoreState(restored); err != nil {
				return fmt.Errorf("restore %s: %w", snapPath, err)
			}
		}
		capture = srv.SnapshotState
		halt = func(time.Duration) { srv.Shutdown() }
	} else {
		rly, err = relay.New(relay.Config{
			Upstream:     *upstream,
			Monitor:      mcfg,
			SpoolBatches: *spool,
			Restore:      restored,
		})
		if err != nil {
			return err
		}
		srv = rly.Server()
		capture = rly.SnapshotState
		halt = rly.Shutdown
	}
	if restored != nil {
		fmt.Printf("restored snapshot %s (%d sessions)\n", snapPath, restoredSessions(restored))
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		halt(0)
		return err
	}
	if rly != nil {
		fmt.Printf("ddosmond listening on %s, forwarding to %s (upstream session %d, r=%d s=%d seed=%d)\n",
			addr, *upstream, rly.SessionID(), *tables, *buckets, *seed)
	} else {
		fmt.Printf("ddosmond listening on %s (r=%d s=%d seed=%d)\n", addr, *tables, *buckets, *seed)
	}

	var debugAddr net.Addr
	if *debug != "" {
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			halt(0)
			return fmt.Errorf("debug listen %s: %w", *debug, err)
		}
		reg := telemetry.NewRegistry()
		if rly != nil {
			rly.RegisterTelemetry(reg)
		} else {
			srv.RegisterTelemetry(reg)
		}
		telemetry.RegisterRuntimeMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/trace", tracelog.TraceHandler(srv.Tracer()))
		mux.Handle("/debug/alerts", debugapi.AlertsHandler(srv.Monitor()))
		mux.Handle("/debug/alerts/", debugapi.AlertsHandler(srv.Monitor()))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: mux}
		defer serveDebug(dsrv, ln)()
		debugAddr = ln.Addr()
		fmt.Printf("telemetry on http://%s/metrics (profiles at /debug/pprof, batch traces at /debug/trace, alert evidence at /debug/alerts)\n", debugAddr)
	}
	if ready != nil {
		ready(addr, debugAddr)
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *status > 0 {
		ticker = time.NewTicker(*status)
		defer ticker.Stop()
		tick = ticker.C
	}
	var snapTick <-chan time.Time
	if snapPath != "" && *snapSecs > 0 {
		snapTicker := time.NewTicker(*snapSecs)
		defer snapTicker.Stop()
		snapTick = snapTicker.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("shutting down...")
			// Shutdown first, snapshot second: Shutdown drains every
			// connection handler, so the final flush captures every acked
			// batch — SIGTERM mid-ingest loses nothing that was
			// acknowledged. A relay then gives its upstream spool the
			// drain budget; whatever it could not deliver stays in the
			// snapshot's spool section for the next incarnation.
			halt(*drain)
			if snapPath != "" {
				if err := writeSnapshot(capture, snapPath); err != nil {
					fmt.Fprintln(os.Stderr, "ddosmond: final snapshot:", err)
				} else {
					fmt.Printf("snapshot flushed to %s\n", snapPath)
				}
			}
			printStatus(srv, rly, *k)
			return nil
		case <-snapTick:
			if err := writeSnapshot(capture, snapPath); err != nil {
				fmt.Fprintln(os.Stderr, "ddosmond: snapshot:", err)
			}
		case <-tick:
			printStatus(srv, rly, *k)
		}
	}
}

// printAlert prints one global-tier alert.
func printAlert(a monitor.Alert) {
	fmt.Printf("ALERT update=%d dest=%s est_distinct_sources=%d baseline=%.1f\n",
		a.AtUpdate, trace.FormatIPv4(a.Dest), a.Estimated, a.Baseline)
}

// writeSnapshot captures the tier's recovery state and writes it
// atomically (tmp + rename) so a crash mid-write leaves the previous
// snapshot intact.
func writeSnapshot(capture func() (*snapshot.State, error), path string) error {
	st, err := capture()
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, st)
}

// restoredSessions counts the replay horizons in a snapshot, for the boot
// log line.
func restoredSessions(st *snapshot.State) int {
	if st.Sessions == nil {
		return 0
	}
	return len(st.Sessions.Horizons)
}

// serveDebug serves the telemetry mux on ln in the background and returns a
// stop function that closes the server and then waits for the serve
// goroutine to exit, so a graceful shutdown never strands the acceptor
// mid-request.
func serveDebug(dsrv *http.Server, ln net.Listener) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = dsrv.Serve(ln)
	}()
	return func() {
		_ = dsrv.Close()
		<-done
	}
}

// printStatus prints the server's ledger, a relay's upstream ledger (rly
// nil on the global tier) and the top-k.
func printStatus(srv *server.Server, rly *relay.Relay, k int) {
	st := srv.Stats()
	fmt.Printf("status: %d updates in %d batches, %d queries, %d protocol errors\n",
		st.Updates, st.Batches, st.Queries, st.ProtocolErrors)
	if rly != nil {
		ex := rly.Stats().Export
		fmt.Printf("upstream: %d/%d batches acked/enqueued, %d spooled, %d dropped\n",
			ex.BatchesAcked, ex.BatchesEnqueued, ex.SpoolDepth, ex.BatchesDropped)
	}
	for i, e := range srv.TopK(k) {
		marker := ""
		if srv.Monitor().Alerting(e.Dest) {
			marker = "  << ALERTING"
		}
		fmt.Printf("  %2d. %-15s ~%d distinct sources%s\n", i+1, trace.FormatIPv4(e.Dest), e.F, marker)
	}
}
