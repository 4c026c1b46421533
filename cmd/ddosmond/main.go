// Command ddosmond is the DDoS monitor daemon: it listens for the wire
// protocol (sequenced flow-update batches, top-k queries) from edge
// exporters, maintains the shared Tracking Distinct-Count Sketch, and prints
// alerts. This is the Fig. 1 DDoS MONITOR as a process.
//
// Usage:
//
//	ddosmond -listen 127.0.0.1:7171 -min-frequency 200
//
// Feed it with cmd/flowexport (replaying a trace) or any client speaking
// internal/wire. Stop with SIGINT/SIGTERM for a graceful drain.
package main

import (
	"errors"
	"expvar"
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
		debug    = fs.String("debug-addr", "", "telemetry listen address serving /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof (empty disables)")
		snapDir  = fs.String("snapshot-dir", "", "directory for crash-safe state snapshots: restored on boot, written periodically and on graceful shutdown (empty disables)")
		snapSecs = fs.Duration("snapshot-interval", 30*time.Second, "period between crash-safe snapshots when -snapshot-dir is set (0 disables the timer; shutdown still flushes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Monitor: monitor.Config{
			Sketch:        dcs.Config{Tables: *tables, Buckets: *buckets, Seed: *seed},
			K:             *k,
			CheckInterval: *interval,
			MinFrequency:  *minFreq,
		},
		OnAlert: func(a monitor.Alert) {
			fmt.Printf("ALERT update=%d dest=%s est_distinct_sources=%d baseline=%.1f\n",
				a.AtUpdate, trace.FormatIPv4(a.Dest), a.Estimated, a.Baseline)
		},
	})
	if err != nil {
		return err
	}

	// Restore precedes Listen: the replay horizons must be in place before
	// the first exporter's hello, or a retransmitted batch the dead process
	// already acked would be applied twice. A missing file is a fresh
	// start; a corrupt one is a hard error — silently starting empty would
	// break the very acked⇒durable promise the snapshot exists for.
	snapPath := ""
	if *snapDir != "" {
		snapPath = filepath.Join(*snapDir, "ddosmond.snapshot")
		st, err := snapshot.ReadFile(snapPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// fresh start
		case err != nil:
			return fmt.Errorf("restore %s: %w", snapPath, err)
		default:
			if err := srv.RestoreState(st); err != nil {
				return fmt.Errorf("restore %s: %w", snapPath, err)
			}
			fmt.Printf("restored snapshot %s (%d sessions)\n", snapPath, restoredSessions(st))
		}
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("ddosmond listening on %s (r=%d s=%d seed=%d)\n", addr, *tables, *buckets, *seed)

	var debugAddr net.Addr
	if *debug != "" {
		// Bind before publishing so a daemon that fails to start does not
		// claim the process-wide expvar slot.
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			srv.Shutdown()
			return fmt.Errorf("debug listen %s: %w", *debug, err)
		}
		reg := telemetry.NewRegistry()
		srv.RegisterTelemetry(reg)
		telemetry.RegisterRuntimeMetrics(reg)
		reg.PublishExpvar("dcsketch")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
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
		fmt.Printf("telemetry on http://%s/metrics (expvar at /debug/vars, profiles at /debug/pprof, batch traces at /debug/trace, alert evidence at /debug/alerts)\n", debugAddr)
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
			// acknowledged.
			srv.Shutdown()
			if snapPath != "" {
				if err := writeSnapshot(srv, snapPath); err != nil {
					fmt.Fprintln(os.Stderr, "ddosmond: final snapshot:", err)
				} else {
					fmt.Printf("snapshot flushed to %s\n", snapPath)
				}
			}
			printStatus(srv, *k)
			return nil
		case <-snapTick:
			if err := writeSnapshot(srv, snapPath); err != nil {
				fmt.Fprintln(os.Stderr, "ddosmond: snapshot:", err)
			}
		case <-tick:
			printStatus(srv, *k)
		}
	}
}

// writeSnapshot captures the server's recovery state and writes it
// atomically (tmp + rename) so a crash mid-write leaves the previous
// snapshot intact.
func writeSnapshot(srv *server.Server, path string) error {
	st, err := srv.SnapshotState()
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

func printStatus(srv *server.Server, k int) {
	st := srv.Stats()
	fmt.Printf("status: %d updates in %d batches, %d queries, %d protocol errors\n",
		st.Updates, st.Batches, st.Queries, st.ProtocolErrors)
	for i, e := range srv.TopK(k) {
		marker := ""
		if srv.Alerting(e.Dest) {
			marker = "  << ALERTING"
		}
		fmt.Printf("  %2d. %-15s ~%d distinct sources%s\n", i+1, trace.FormatIPv4(e.Dest), e.F, marker)
	}
}
