package relay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/server"
	"dcsketch/internal/wire"
)

// TestRelaySnapshotAtomicWithSpool tears at the relay's capture. Four edge
// exporters stream gap-free one-update batches into a relay while captures
// run in a loop. Each batch the relay accepts advances its edge's horizon
// and takes exactly one upstream sequence number in one server-mutex
// section, so every capture must satisfy Σ downstream horizons == upstream
// NextSeq − 1. A spool captured outside that section could hold a batch the
// captured horizons do not cover, or miss one they do.
func TestRelaySnapshotAtomicWithSpool(t *testing.T) {
	const (
		edges   = 4
		batches = 600
	)
	// A small sketch keeps each capture's encode short, so many captures
	// interleave with the stream.
	mcfg := monitor.Config{Sketch: dcs.Config{Tables: 3, Buckets: 16, Seed: 9}}
	global, err := server.New(server.Config{Monitor: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	gaddr, err := global.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(global.Shutdown)
	rly, err := New(Config{Upstream: gaddr.String(), Monitor: mcfg, SpoolBatches: edges * batches, SessionID: 7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := rly.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rly.Shutdown(0) })

	var stop atomic.Bool
	var captures, midStream, torn int
	var capturer sync.WaitGroup
	capturer.Add(1)
	go func() {
		defer capturer.Done()
		for !stop.Load() {
			st, err := rly.SnapshotState()
			if err != nil {
				t.Error(err)
				return
			}
			var down uint64
			for _, h := range st.Sessions.Horizons {
				down += h.LastSeq
			}
			if up := st.Spool.NextSeq - 1; down != up {
				if torn == 0 {
					t.Errorf("torn capture: downstream horizons sum to %d, upstream assigned %d", down, up)
				}
				torn++
			}
			if down > 0 && down < edges*batches {
				midStream++
			}
			captures++
		}
	}()

	var feeders sync.WaitGroup
	for i := 0; i < edges; i++ {
		e, err := export.New(export.Config{
			Addr:         raddr.String(),
			SpoolBatches: batches, // nothing is shed: edge sequences stay gap-free
			SessionID:    uint64(101 + i),
			Seed:         uint64(101 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for j := 0; j < batches; j++ {
				up := []wire.Update{{Src: uint32(j), Dst: uint32(i), Delta: 1}}
				if err := e.Export(up); err != nil {
					t.Error(err)
					return
				}
			}
			if err := e.Drain(60 * time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	feeders.Wait()
	stop.Store(true)
	capturer.Wait()
	if t.Failed() {
		t.Fatalf("%d of %d captures torn", torn, captures)
	}
	if midStream == 0 {
		t.Fatalf("none of %d captures landed mid-stream", captures)
	}
	t.Logf("%d captures, %d mid-stream, 0 torn", captures, midStream)
}
