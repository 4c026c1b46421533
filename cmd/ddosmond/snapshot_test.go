package main

import (
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/wire"
)

// startDaemonIn runs the daemon with the given flags and hands back a stop
// function (send SIGTERM, wait for exit) so the test controls the restart
// boundary instead of t.Cleanup.
func startDaemonIn(t *testing.T, extra ...string) (serveAddr, debugAddr net.Addr, stopFn func()) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	readyCh := make(chan [2]net.Addr, 1)
	args := append([]string{"-listen", "127.0.0.1:0", "-status-every", "0"}, extra...)
	go func() {
		done <- run(args, stop, func(sa, da net.Addr) { readyCh <- [2]net.Addr{sa, da} })
	}()
	stopFn = func() {
		stop <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not stop")
		}
	}
	select {
	case addrs := <-readyCh:
		return addrs[0], addrs[1], stopFn
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	panic("unreachable")
}

// snapBatch is the deterministic batch for sequence seq: three distinct
// sources hitting destination seq, so the sketch reveals exactly which
// sequences it contains.
func snapBatch(seq uint64) []wire.Update {
	b := make([]wire.Update, 3)
	for j := range b {
		b[j] = wire.Update{Src: uint32(9000 + 3*seq + uint64(j)), Dst: uint32(seq), Delta: 1}
	}
	return b
}

// TestSnapshotSurvivesSigtermMidIngest is the graceful-shutdown ordering
// proof at the daemon level: SIGTERM lands while an exporter is actively
// streaming, and the restarted daemon (same -snapshot-dir) must still hold
// every batch the dead incarnation acknowledged — none lost from the
// sketch, none re-applied when the edge replays its trace.
func TestSnapshotSurvivesSigtermMidIngest(t *testing.T) {
	dir := t.TempDir()
	flags := []string{
		"-snapshot-dir", dir,
		"-snapshot-interval", "0", // only the shutdown flush writes
		"-s", "256",
		"-min-frequency", "100000", // keep alert prints out of the test log
	}
	serveAddr, _, stopDaemon := startDaemonIn(t, flags...)

	exp1, err := export.New(export.Config{Addr: serveAddr.String(), SessionID: 9, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// Stream batches slowly enough that SIGTERM lands mid-trace.
	const total = 60
	var exported atomic.Uint64
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		for seq := uint64(1); seq <= total; seq++ {
			if err := exp1.Export(snapBatch(seq)); err != nil {
				t.Error(err)
				return
			}
			exported.Store(seq)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for exp1.Stats().BatchesAcked < 20 {
		if time.Now().After(deadline) {
			t.Fatal("exporter never got 20 acks")
		}
		time.Sleep(time.Millisecond)
	}
	stopDaemon() // SIGTERM with the feeder still running
	<-feederDone
	// No further acks are possible: the ledger is final.
	acked := exp1.Stats().BatchesAcked
	exp1.Close()
	if _, err := os.Stat(filepath.Join(dir, "ddosmond.snapshot")); err != nil {
		t.Fatalf("shutdown flushed no snapshot: %v", err)
	}

	// Incarnation 2 restores from the shutdown flush.
	serveAddr2, debugAddr2, stopDaemon2 := startDaemonIn(t, append(flags, "-debug-addr", "127.0.0.1:0")...)
	defer stopDaemon2()

	// The edge replays its full trace under the same session. The hello
	// echo prunes everything the dead incarnation acked; only the tail is
	// delivered and applied.
	exp2, err := export.New(export.Config{Addr: serveAddr2.String(), SessionID: 9, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	for seq := uint64(1); seq <= total; seq++ {
		if err := exp2.Export(snapBatch(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp2.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Proof 1 (nothing lost): the restored-plus-replayed sketch holds every
	// destination 1..total — in particular every batch acked pre-SIGTERM.
	c, err := server.Dial(serveAddr2.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	top, err := c.TopK(total + 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, e := range top {
		if e.Dest == 0 || uint64(e.Dest) > total {
			t.Fatalf("restored sketch holds unknown dest %d", e.Dest)
		}
		seen[e.Dest] = true
	}
	if len(seen) != total {
		t.Fatalf("restored sketch holds %d of %d destinations: acked batches lost across SIGTERM (acked=%d)",
			len(seen), total, acked)
	}

	// Proof 2 (nothing re-applied): incarnation 2's own update counter is at
	// most the unacked tail — replayed pre-ack batches were deduped by the
	// restored horizon, not folded twice.
	_, body := httpGet(t, "http://"+debugAddr2.String()+"/metrics")
	applied := metricValue(body, "dcsketch_server_updates_total")
	if max := float64(3 * (total - acked)); applied > max {
		t.Fatalf("restarted daemon applied %v updates, want <= %v: an acked batch was re-applied", applied, max)
	}
	if acked < 20 {
		t.Fatalf("acked = %d, mid-ingest setup broken", acked)
	}
}

// startGlobal runs an in-process global collector with the daemon's default
// sketch, the upstream for a relay-tier daemon under test.
func startGlobal(t *testing.T) (*server.Server, string) {
	t.Helper()
	global, err := server.New(server.Config{
		Monitor: monitor.Config{Sketch: dcs.Config{Tables: 3, Buckets: 128, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := global.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(global.Shutdown)
	return global, addr.String()
}

// sendThrough streams snapBatch(from..to) through a fresh edge exporter
// (session id) into the relay at addr and waits until the relay has acked
// them all.
func sendThrough(t *testing.T, addr string, id, from, to uint64) {
	t.Helper()
	exp, err := export.New(export.Config{Addr: addr, SessionID: id, Seed: id})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	for dst := from; dst <= to; dst++ {
		if err := exp.Export(snapBatch(dst)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// globalDests returns the destinations the global sketch tracks, failing
// on any outside 1..max.
func globalDests(t *testing.T, global *server.Server, max uint64) map[uint32]bool {
	t.Helper()
	seen := map[uint32]bool{}
	for _, e := range global.TopK(int(max) + 5) {
		if e.Dest == 0 || uint64(e.Dest) > max {
			t.Fatalf("global sketch holds unknown dest %d", e.Dest)
		}
		seen[e.Dest] = true
	}
	return seen
}

// TestRelayTierFansInToGlobal drives an edge exporter through a relay-tier
// daemon into a real global server, restarts the relay from its snapshot,
// and checks the global sketch saw the whole trace exactly once. The
// restarted relay's upstream session comes from the snapshot alone.
func TestRelayTierFansInToGlobal(t *testing.T) {
	global, globalAddr := startGlobal(t)

	dir := t.TempDir()
	flags := []string{
		"-upstream", globalAddr,
		"-snapshot-dir", dir,
		"-snapshot-interval", "0",
		"-drain-budget", "5s",
	}
	relayAddr, _, stopRelay := startDaemonIn(t, flags...)
	const batches = 20
	sendThrough(t, relayAddr.String(), 5, 1, batches)

	// Graceful stop drains the upstream spool, then flushes the snapshot
	// under the relay tier's file name.
	stopRelay()
	if _, err := os.Stat(filepath.Join(dir, "ddosrelay.snapshot")); err != nil {
		t.Fatalf("shutdown flushed no snapshot: %v", err)
	}

	// Every batch reached the global tier through the relay's session.
	if seen := globalDests(t, global, batches); len(seen) != batches {
		t.Fatalf("global sketch holds %d of %d destinations", len(seen), batches)
	}
	if gs := global.Stats(); gs.DuplicateBatches != 0 {
		t.Fatalf("global deduped %d batches on a clean run", gs.DuplicateBatches)
	}

	// The restarted relay restores its horizons: replaying the edge trace
	// is pruned at the relay, so the global tier sees nothing twice. Five
	// fresh batches follow the replay; they reach the global tier under
	// the restored upstream session, which is still the only one it knows.
	relayAddr2, _, stopRelay2 := startDaemonIn(t, flags...)
	const more = batches + 5
	sendThrough(t, relayAddr2.String(), 5, 1, more)
	stopRelay2()
	gs := global.Stats()
	if gs.Batches != more {
		t.Fatalf("global applied %d batches after replay, want %d", gs.Batches, more)
	}
	if gs.DuplicateBatches != 0 {
		t.Fatalf("replay leaked %d duplicate batches to the global tier", gs.DuplicateBatches)
	}
	if gs.SessionsActive != 1 {
		t.Fatalf("global knows %d upstream sessions, want the one restored from the snapshot", gs.SessionsActive)
	}
	if seen := globalDests(t, global, more); len(seen) != more {
		t.Fatalf("global sketch holds %d of %d destinations", len(seen), more)
	}
}

// TestRelayTierRestartWithoutSnapshot pins why the relay tier has no
// session flag: a relay restarted without -snapshot-dir must announce a
// fresh upstream session, or the global tier would ack the new
// incarnation's first batches as already applied. Each incarnation sends
// 20 fresh batches; the global tier must apply all 40.
func TestRelayTierRestartWithoutSnapshot(t *testing.T) {
	global, globalAddr := startGlobal(t)
	const batches = 20
	for inc := uint64(0); inc < 2; inc++ {
		relayAddr, _, stopRelay := startDaemonIn(t, "-upstream", globalAddr)
		sendThrough(t, relayAddr.String(), 5+inc, 1+inc*batches, (inc+1)*batches)
		stopRelay()
	}
	gs := global.Stats()
	if gs.Batches != 2*batches || gs.DuplicateBatches != 0 {
		t.Fatalf("global applied %d batches (%d acked as duplicates), want %d and 0",
			gs.Batches, gs.DuplicateBatches, 2*batches)
	}
	if seen := globalDests(t, global, 2*batches); len(seen) != 2*batches {
		t.Fatalf("global sketch holds %d of %d destinations", len(seen), 2*batches)
	}
}
