// Command ddosrelay is the regional relay tier of the collector fabric: it
// accepts edge exporters' update batches exactly like ddosmond, folds them
// into a regional sketch, and re-exports every accepted batch to the global
// collector through its own replay session — so a fleet fans in
// edge → regional → global with exactly-once application at each hop.
//
// Usage:
//
//	ddosrelay -listen 127.0.0.1:7272 -upstream 127.0.0.1:7171 -session 42
//
// Pin -session (or use -snapshot-dir) so a restarted relay resumes its
// upstream replay horizon instead of re-sending applied batches under a
// fresh identity. Stop with SIGINT/SIGTERM for a graceful drain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/monitor"
	"dcsketch/internal/relay"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/trace"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ddosrelay:", err)
		os.Exit(1)
	}
}

// run starts the relay and blocks until a value arrives on stop. If ready
// is non-nil it is called once with the bound downstream address — a seam
// for tests to discover ports.
func run(args []string, stop <-chan os.Signal, ready func(serveAddr net.Addr)) error {
	fs := flag.NewFlagSet("ddosrelay", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:7272", "downstream listen address (edge exporters connect here)")
		upstream = fs.String("upstream", "", "global collector address (required)")
		k        = fs.Int("k", 10, "top-k destinations in status lines")
		minFreq  = fs.Int64("min-frequency", 64, "absolute alert floor for the regional monitor")
		interval = fs.Int("check-interval", 4096, "flow updates between regional tracking checks")
		seed     = fs.Uint64("seed", 1, "sketch seed (must match the whole fleet)")
		buckets  = fs.Int("s", 128, "second-level hash-table buckets (s)")
		tables   = fs.Int("r", 3, "second-level hash tables (r)")
		spool    = fs.Int("spool", 0, "upstream spool bound in batches (0 = export default)")
		session  = fs.Uint64("session", 0, "upstream replay session id (0 draws a random one)")
		status   = fs.Duration("status-every", 10*time.Second, "status line period (0 disables)")
		drain    = fs.Duration("drain-budget", 5*time.Second, "how long shutdown may wait for the upstream spool to empty")
		snapDir  = fs.String("snapshot-dir", "", "directory for crash-safe state snapshots: restored on boot, written periodically and on graceful shutdown (empty disables)")
		snapSecs = fs.Duration("snapshot-interval", 30*time.Second, "period between crash-safe snapshots when -snapshot-dir is set (0 disables the timer; shutdown still flushes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream == "" {
		return errors.New("-upstream required")
	}

	cfg := relay.Config{
		Upstream: *upstream,
		Monitor: monitor.Config{
			Sketch:        dcs.Config{Tables: *tables, Buckets: *buckets, Seed: *seed},
			K:             *k,
			CheckInterval: *interval,
			MinFrequency:  *minFreq,
		},
		SpoolBatches: *spool,
		SessionID:    *session,
		Seed:         *seed,
	}

	// Restore precedes New/Listen for the same reason as in ddosmond: the
	// horizons and the upstream spool must be live before the first edge
	// hello. Missing file = fresh start; corrupt file = hard error.
	snapPath := ""
	if *snapDir != "" {
		snapPath = filepath.Join(*snapDir, "ddosrelay.snapshot")
		st, err := snapshot.ReadFile(snapPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// fresh start
		case err != nil:
			return fmt.Errorf("restore %s: %w", snapPath, err)
		default:
			cfg.Restore = st
		}
	}

	rly, err := relay.New(cfg)
	if err != nil {
		return err
	}
	if cfg.Restore != nil {
		fmt.Printf("restored snapshot %s (upstream session %d)\n", snapPath, rly.SessionID())
	}
	addr, err := rly.Listen(*listen)
	if err != nil {
		rly.Shutdown(0)
		return err
	}
	fmt.Printf("ddosrelay listening on %s, forwarding to %s (session %d, r=%d s=%d seed=%d)\n",
		addr, *upstream, rly.SessionID(), *tables, *buckets, *seed)
	if ready != nil {
		ready(addr)
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
			// Stop downstream first (handlers drain, no new Forward
			// calls), give the upstream spool its drain budget, then
			// flush the final snapshot: whatever the drain could not
			// deliver stays in the snapshot's spool section and is
			// retransmitted by the next incarnation.
			rly.Shutdown(*drain)
			if snapPath != "" {
				if err := writeSnapshot(rly, snapPath); err != nil {
					fmt.Fprintln(os.Stderr, "ddosrelay: final snapshot:", err)
				} else {
					fmt.Printf("snapshot flushed to %s\n", snapPath)
				}
			}
			printStatus(rly, *k)
			return nil
		case <-snapTick:
			if err := writeSnapshot(rly, snapPath); err != nil {
				fmt.Fprintln(os.Stderr, "ddosrelay: snapshot:", err)
			}
		case <-tick:
			printStatus(rly, *k)
		}
	}
}

// writeSnapshot captures the relay's recovery state (server sections plus
// the upstream spool) and writes it atomically.
func writeSnapshot(rly *relay.Relay, path string) error {
	st, err := rly.SnapshotState()
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, st)
}

func printStatus(rly *relay.Relay, k int) {
	st := rly.Stats()
	fmt.Printf("status: %d updates in %d batches downstream; %d/%d batches acked/enqueued upstream, %d spooled, %d dropped\n",
		st.Server.Updates, st.Server.Batches,
		st.Export.BatchesAcked, st.Export.BatchesEnqueued, st.Export.SpoolDepth, st.Export.BatchesDropped)
	for i, e := range rly.TopK(k) {
		fmt.Printf("  %2d. %-15s ~%d distinct sources\n", i+1, trace.FormatIPv4(e.Dest), e.F)
	}
}
