package relay

import (
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/faultnet"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// sketchCfg is the fleet-wide sketch configuration: every tier (and the
// single-box reference) must share it for folds to merge exactly.
func sketchCfg() monitor.Config {
	return monitor.Config{Sketch: dcs.Config{Tables: 3, Buckets: 128, Seed: 9}}
}

// edgeBatches produces a deterministic per-edge traffic trace concentrated
// on a few destinations.
func edgeBatches(seed uint64, batches, batchSize int) [][]wire.Update {
	rng := hashing.NewSplitMix64(seed)
	out := make([][]wire.Update, batches)
	for i := range out {
		b := make([]wire.Update, batchSize)
		for j := range b {
			b[j] = wire.Update{
				Src:   uint32(rng.Next()),
				Dst:   uint32(rng.Next() % 16),
				Delta: int64(1 + rng.Next()%3),
			}
		}
		out[i] = b
	}
	return out
}

// dialVia returns an exporter Dial that reads its target from addr at call
// time, so a restarted tier's new port is picked up on the next redial.
func dialVia(addr *atomic.Value) func(string, time.Duration) (net.Conn, error) {
	return func(_ string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr.Load().(string), timeout)
	}
}

// TestChaosRestartFabricExactlyOnce is the headline proof for the crash-safe
// collector fabric: two edge exporters stream into a regional relay that
// re-exports into a global collector, while seeded faultnet cuts sever
// connections mid-frame and BOTH tiers take a hard restart (transport
// killed mid-frame, state recovered only through the snapshot file). The
// assertions: the global top-k is byte-identical to a single-box run of the
// same traffic, and the flight recorders prove every (session, seq) was
// applied exactly once at each tier.
func TestChaosRestartFabricExactlyOnce(t *testing.T) {
	const (
		edges    = 2
		batches  = 250
		perBatch = 16
	)
	dir := t.TempDir()
	relayRec := tracelog.New(tracelog.Options{SlotsPerRing: 8192, MaxRings: 256})
	globalRec := tracelog.New(tracelog.Options{SlotsPerRing: 8192, MaxRings: 256})

	var globalAddr, relayAddr atomic.Value

	// --- global collector, incarnation 1 (kill point armed) ---
	globalInj := faultnet.New(faultnet.Config{Seed: 31, CutAfter: 15000, MaxCuts: 4, KillAfter: 60000})
	var globalSrv atomic.Pointer[server.Server]
	bootGlobal := func(inj *faultnet.Injector, restore *snapshot.State) {
		srv, err := server.New(server.Config{Monitor: sketchCfg(), Trace: globalRec})
		if err != nil {
			t.Fatal(err)
		}
		if restore != nil {
			if err := srv.RestoreState(restore); err != nil {
				t.Fatal(err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(inj.Listen(ln)); err != nil {
			t.Fatal(err)
		}
		globalAddr.Store(ln.Addr().String())
		globalSrv.Store(srv)
		t.Cleanup(srv.Shutdown)
	}
	bootGlobal(globalInj, nil)

	// --- regional relay, incarnation 1 (kill point armed) ---
	relayInj := faultnet.New(faultnet.Config{Seed: 47, CutAfter: 9000, MaxCuts: 6, KillAfter: 30000})
	var rly atomic.Pointer[Relay]
	bootRelay := func(inj *faultnet.Injector, cfg Config) {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Serve(inj.Listen(ln)); err != nil {
			t.Fatal(err)
		}
		relayAddr.Store(ln.Addr().String())
		rly.Store(r)
		t.Cleanup(func() { r.Shutdown(0) })
	}
	relayCfg := Config{
		Upstream:     "global",
		UpstreamDial: dialVia(&globalAddr),
		Monitor:      sketchCfg(),
		SpoolBatches: 4096,
		SessionID:    7,
		Seed:         7,
		Trace:        relayRec,
	}
	bootRelay(relayInj, relayCfg)

	// --- restart watchers: a kill is a hard restart through the snapshot ---
	var restarts sync.WaitGroup
	restarts.Add(2)
	go func() {
		defer restarts.Done()
		select {
		case <-relayInj.Killed():
		case <-time.After(60 * time.Second):
			t.Error("relay kill never fired")
			return
		}
		old := rly.Load()
		old.Shutdown(0) // the transport is already severed; drain nothing
		st, err := old.SnapshotState()
		if err != nil {
			t.Error(err)
			return
		}
		path := filepath.Join(dir, "relay.snapshot")
		if err := snapshot.WriteFile(path, st); err != nil {
			t.Error(err)
			return
		}
		restored, err := snapshot.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := relayCfg
		cfg.SessionID = 0 // the restored spool carries the session
		cfg.Restore = restored
		bootRelay(faultnet.New(faultnet.Config{Seed: 48, CutAfter: 20000, MaxCuts: 2}), cfg)
	}()
	go func() {
		defer restarts.Done()
		select {
		case <-globalInj.Killed():
		case <-time.After(60 * time.Second):
			t.Error("global kill never fired")
			return
		}
		old := globalSrv.Load()
		old.Shutdown()
		st, err := old.SnapshotState()
		if err != nil {
			t.Error(err)
			return
		}
		path := filepath.Join(dir, "global.snapshot")
		if err := snapshot.WriteFile(path, st); err != nil {
			t.Error(err)
			return
		}
		restored, err := snapshot.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		bootGlobal(faultnet.New(faultnet.Config{Seed: 32, CutAfter: 30000, MaxCuts: 2}), restored)
	}()

	// --- single-box reference: same traffic, no faults, one server ---
	refSrv, err := server.New(server.Config{Monitor: sketchCfg()})
	if err != nil {
		t.Fatal(err)
	}
	refAddr, err := refSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(refSrv.Shutdown)
	refExp, err := export.New(export.Config{Addr: refAddr.String(), SessionID: 55, Seed: 55, SpoolBatches: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refExp.Close() })

	// --- edge exporters stream through the chaos ---
	var feeders sync.WaitGroup
	edgeExps := make([]*export.Exporter, edges)
	for i := 0; i < edges; i++ {
		e, err := export.New(export.Config{
			Addr:        "relay",
			Dial:        dialVia(&relayAddr),
			DialTimeout: time.Second,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			SessionID:   uint64(101 + i),
			Seed:        uint64(101 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		edgeExps[i] = e
		t.Cleanup(func() { e.Close() })
		feeders.Add(1)
		go func(i int, e *export.Exporter) {
			defer feeders.Done()
			for _, b := range edgeBatches(uint64(1000+i), batches, perBatch) {
				if err := e.Export(b); err != nil {
					t.Error(err)
					return
				}
				if err := refExp.Export(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, e)
	}
	feeders.Wait()

	// Both tiers must take their hard restart before the drain phase.
	restarts.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Drain edge→relay, then relay→global, then the reference.
	for _, e := range edgeExps {
		if err := e.Drain(90 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := rly.Load().Drain(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := refExp.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	// --- proof 1: global top-k byte-identical to the single-box run ---
	got := globalSrv.Load().TopK(10)
	want := refSrv.TopK(10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global top-k diverged from single-box run:\n got  %v\n want %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("empty top-k: no traffic made it through")
	}

	// --- proof 2: exactly-once application per (session, seq) per tier ---
	// Edge sessions at the relay tier: every batch either sheds at the edge
	// (spool is big enough that none do) or applies exactly once.
	relayApplied := applyCounts(relayRec)
	for i := 0; i < edges; i++ {
		sess := uint64(101 + i)
		for seq := uint64(1); seq <= batches; seq++ {
			if n := relayApplied[[2]uint64{sess, seq}]; n != 1 {
				t.Fatalf("relay applied (session %d, seq %d) %d times", sess, seq, n)
			}
		}
	}
	// The relay's own session at the global tier: one upstream batch per
	// unique edge batch, in one contiguous sequence range.
	globalApplied := applyCounts(globalRec)
	for seq := uint64(1); seq <= edges*batches; seq++ {
		if n := globalApplied[[2]uint64{7, seq}]; n != 1 {
			t.Fatalf("global applied (session 7, seq %d) %d times", seq, n)
		}
	}
	if len(globalApplied) != edges*batches {
		t.Fatalf("global applied %d distinct batches, want %d", len(globalApplied), edges*batches)
	}

	// Sanity on the chaos itself: both kills and at least one cut fired.
	if relayInj.Stats().Kills != 1 || globalInj.Stats().Kills != 1 {
		t.Fatalf("kills = %d/%d, want 1/1", relayInj.Stats().Kills, globalInj.Stats().Kills)
	}
	if relayInj.Stats().Cuts+globalInj.Stats().Cuts == 0 {
		t.Fatal("no cuts fired; chaos schedule too lax")
	}
}

// applyCounts tallies StageServerApply events per (session, seq).
func applyCounts(rec *tracelog.Recorder) map[[2]uint64]int {
	counts := make(map[[2]uint64]int)
	for _, ev := range rec.Events(nil) {
		if ev.Stage == tracelog.StageServerApply && ev.Session != 0 {
			counts[[2]uint64{ev.Session, ev.Seq}]++
		}
	}
	return counts
}
