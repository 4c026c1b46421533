package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/pipeline"
	"dcsketch/internal/relay"
	"dcsketch/internal/server"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/wire"
)

// Replay sizes: how many times each query-shaped call is timed, and how
// many batches the relay-hop probe pushes.
const (
	topkCalls  = 1000
	heavyCalls = 9
	hopBatches = 64
)

// replay pushes the workload's own live set through each layer's public
// functions, one span per 512-update call, and times the query-shaped
// calls on the state that leaves. Each sketch-holding layer absorbs the live
// set once untimed and is timed on a second pass: a fresh sketch's first
// pass pays for its sample level climbing from empty (tracking rebuilds,
// first touches of its memory), three to seven times the steady-state cost
// a daemon pays in the window.
func (d *drive) replay(live []wire.Update, c *counters) error {
	tr, clk := d.tr, d.clk
	cfg := daemonMonitor().Sketch
	c.Replayed = len(live)
	keys := appendKeys(nil, live)
	chunks := func(fn func(i, off, end int)) {
		for off := 0; off < len(live); off += batchSize {
			fn(off/batchSize, off, min(off+batchSize, len(live)))
		}
	}
	warm := func(update func([]dcs.KeyDelta)) {
		chunks(func(_, off, end int) { update(keys[off:end]) })
	}
	timed := func(name string, update func([]dcs.KeyDelta)) {
		chunks(func(i, off, end int) {
			start := clk.now()
			update(keys[off:end])
			tr.add(name, replaySpan, start, clk.now(), uint64(i))
		})
	}
	timeN := func(name string, n int, fn func() error) error {
		for i := 0; i < n; i++ {
			if err := tr.timeCall(clk, name, replaySpan, uint64(i), fn); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}

	// wire: encode then decode each batch.
	var payload []byte
	var decoded []wire.Update
	var decodeErr error
	chunks(func(i, off, end int) {
		start := clk.now()
		payload = wire.AppendSeqUpdates(payload[:0], uint64(i+1), live[off:end])
		mid := clk.now()
		var err error
		if _, decoded, err = wire.DecodeSeqUpdatesInto(payload, decoded[:0]); err != nil && decodeErr == nil {
			decodeErr = err
		}
		tr.add("wire.encode", replaySpan, start, mid, uint64(i))
		tr.add("wire.decode", replaySpan, mid, clk.now(), uint64(i))
		c.WireBytes += len(payload)
	})
	if decodeErr != nil {
		return decodeErr
	}

	// dcs: the basic sketch's batched kernel, then marshal and merge.
	sk, err := dcs.New(cfg)
	if err != nil {
		return err
	}
	warm(sk.UpdateBatch)
	timed("dcs.update", sk.UpdateBatch)
	if err := timeN("dcs.marshal", heavyCalls, func() error {
		b, err := sk.MarshalBinary()
		c.MarshalBytes = len(b)
		return err
	}); err != nil {
		return err
	}
	acc, err := dcs.New(cfg)
	if err != nil {
		return err
	}
	if err := timeN("dcs.merge", heavyCalls, func() error { return acc.Merge(sk) }); err != nil {
		return err
	}

	// tdcs: the tracking sketch the monitor wraps.
	tk, err := tdcs.New(cfg)
	if err != nil {
		return err
	}
	warm(tk.UpdateBatch)
	timed("tdcs.update", tk.UpdateBatch)
	if err := timeN("tdcs.topk", topkCalls, func() error { tk.TopK(10); return nil }); err != nil {
		return err
	}

	// monitor: the daemon's detection layer over the same batches.
	mon, err := monitor.New(daemonMonitor(), nil)
	if err != nil {
		return err
	}
	warm(mon.UpdateBatch)
	timed("monitor.update", mon.UpdateBatch)
	if err := timeN("monitor.topk", topkCalls, func() error { mon.TopK(10); return nil }); err != nil {
		return err
	}

	// pipeline: stage through a Batcher into nproc shards. A fold waits for
	// the shards to apply everything staged, so one after the warm pass
	// keeps its shard work out of the timed one, and the first fold after
	// the timed pass (pipeline.drain) completes it.
	pipe, err := pipeline.New(cfg, runtime.GOMAXPROCS(0), 0)
	if err != nil {
		return err
	}
	b := pipe.NewBatcher()
	stage := func(batch []dcs.KeyDelta) {
		for _, kd := range batch {
			b.UpdateKey(kd.Key, kd.Delta)
		}
		b.Flush()
	}
	fold := func() error { _, err := pipe.FoldBase(); return err }
	warm(stage)
	if err = fold(); err == nil {
		timed("pipeline.stage", stage)
		err = tr.timeCall(clk, "pipeline.drain", replaySpan, 0, fold)
	}
	if err == nil {
		err = timeN("pipeline.fold", heavyCalls, fold)
	}
	pipe.Close()
	if err != nil {
		return err
	}

	// server: in-process queries and state captures on the drained global
	// tier the window ran against.
	g := d.fab.global
	if err := timeN("server.topk", topkCalls, func() error { g.TopK(10); return nil }); err != nil {
		return err
	}
	var snap []byte
	for i := 0; i < heavyCalls; i++ {
		var st *snapshot.State
		if err := tr.timeCall(clk, "server.snapshot_capture", replaySpan, uint64(i), func() (err error) {
			st, err = g.SnapshotState()
			return err
		}); err != nil {
			return fmt.Errorf("snapshot capture: %w", err)
		}
		start := clk.now()
		snap = snapshot.Encode(snap[:0], st)
		tr.add("snapshot.encode", replaySpan, start, clk.now(), uint64(i))
		c.SnapshotBytes = len(snap)
	}

	return d.relayHop(live)
}

// relayHop times the relay tier in isolation: a fresh edge → relay →
// global chain over loopback, fed one live-set batch at a time. Each span
// runs from the batch being applied at the relay to it being applied at
// the global tier.
func (d *drive) relayHop(live []wire.Update) error {
	clk := d.clk
	g, err := server.New(server.Config{Monitor: daemonMonitor()})
	if err != nil {
		return err
	}
	defer g.Shutdown()
	gaddr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	r, err := relay.New(relay.Config{Upstream: gaddr.String(), Monitor: daemonMonitor(), SessionID: sessionID(d.rc.seed, 201), Seed: 1})
	if err != nil {
		return err
	}
	defer r.Shutdown(0)
	raddr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	exp, err := export.New(export.Config{Addr: raddr.String(), SessionID: sessionID(d.rc.seed, 202)})
	if err != nil {
		return err
	}
	defer exp.Close()

	var want uint64
	for i := 0; i < hopBatches && i*batchSize < len(live); i++ {
		batch := live[i*batchSize : min((i+1)*batchSize, len(live))]
		if err := exp.Export(batch); err != nil {
			return err
		}
		want += uint64(len(batch))
		atRelay, err := waitApplied(clk, func() uint64 { return r.Stats().Server.Updates }, want)
		if err != nil {
			return fmt.Errorf("relay: %w", err)
		}
		atGlobal, err := waitApplied(clk, func() uint64 { return g.Stats().Updates }, want)
		if err != nil {
			return fmt.Errorf("global: %w", err)
		}
		d.tr.add("relay.hop", replaySpan, atRelay, atGlobal, uint64(i))
	}
	return nil
}

// waitApplied spins until applied() reaches want and returns when it did.
func waitApplied(clk *clock, applied func() uint64, want uint64) (time.Duration, error) {
	deadline := clk.now() + drainTimeout
	for applied() < want {
		if clk.now() > deadline {
			return 0, errors.New("updates not applied")
		}
		runtime.Gosched()
	}
	return clk.now(), nil
}

// layerMetrics computes every per-layer metric from a traced run's spans
// and counters: the same data the span file holds.
func layerMetrics(spans []span, c counters) map[string]float64 {
	durs := map[string][]float64{}
	sums := map[string]float64{}
	exportStart := map[uint64]int64{}
	var genLag, ackLag []float64
	for _, s := range spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		sums[s.Name] += d
		if s.Name == "export" {
			exportStart[s.Ref] = s.Start
		}
		if s.Due != 0 && (s.Name == "export" || s.Name == "flood" || s.Name == "retract") {
			genLag = append(genLag, float64(s.Start-s.Due)/1e6)
		}
	}
	for _, s := range spans {
		if t0, ok := exportStart[s.Ref]; ok && s.Name == "export.roundtrip" {
			ackLag = append(ackLag, float64(s.End-t0)/1e6)
		}
	}
	p := func(name string, q, scale float64) float64 { return percentile(durs[name], q) / scale }
	n := float64(c.Replayed)
	perUpdate := func(w windowCounters, v float64) float64 { return v / float64(max(w.Updates, 1)) }
	u, t := c.Untraced, c.Traced
	return map[string]float64{
		"wire.encode_ns_per_update":      sums["wire.encode"] / n,
		"wire.decode_ns_per_update":      sums["wire.decode"] / n,
		"wire.bytes_per_update":          float64(c.WireBytes) / n,
		"export.enqueue_ns_per_batch":    sums["export"] / float64(max(len(durs["export"]), 1)),
		"export.spool_depth_mean":        float64(c.SpoolSum) / float64(max(c.SpoolSamples, 1)),
		"export.ack_lag_p50_ms":          percentile(ackLag, 0.5),
		"export.roundtrip_p50_us":        p("export.roundtrip", 0.5, 1e3),
		"export.retransmit_ratio":        float64(c.Retransmits) / float64(max(c.SendAttempts, 1)),
		"query.roundtrip_p50_us":         p("client.topk", 0.5, 1e3),
		"query.roundtrip_p99_us":         p("client.topk", 0.99, 1e3),
		"server.topk_us":                 p("server.topk", 0.5, 1e3),
		"server.snapshot_capture_p50_ms": p("server.snapshot_capture", 0.5, 1e6),
		"server.snapshot_capture_max_ms": p("server.snapshot_capture", 1, 1e6),
		"server.dup_ratio":               float64(c.DuplicateBatches) / float64(max(c.SeqBatches, 1)),
		"monitor.update_ns":              sums["monitor.update"] / n,
		"monitor.topk_us":                p("monitor.topk", 0.5, 1e3),
		"tdcs.update_ns":                 sums["tdcs.update"] / n,
		"tdcs.topk_ns":                   p("tdcs.topk", 0.5, 1),
		"tdcs.recall_at_10":              c.Recall,
		"tdcs.rel_error_at_10":           c.RelError,
		"dcs.update_ns":                  sums["dcs.update"] / n,
		"dcs.merge_ms":                   p("dcs.merge", 0.5, 1e6),
		"dcs.marshal_ms":                 p("dcs.marshal", 0.5, 1e6),
		"dcs.marshal_bytes":              float64(c.MarshalBytes),
		// Staging plus the part of the draining fold spent waiting for the
		// shards, which is what it took beyond a fold of quiescent shards.
		"pipeline.update_ns":             (sums["pipeline.stage"] + max(0, sums["pipeline.drain"]-p("pipeline.fold", 0.5, 1))) / n,
		"pipeline.fold_ms":               p("pipeline.fold", 0.5, 1e6),
		"relay.hop_p50_ms":               p("relay.hop", 0.5, 1e6),
		"relay.upstream_spool_max":       float64(c.RelaySpoolMax),
		"snapshot.encode_ms":             p("snapshot.encode", 0.5, 1e6),
		"snapshot.bytes":                 float64(c.SnapshotBytes),
		"runtime.cpu_ns_per_update":      perUpdate(u, float64(u.CPUNs)),
		"runtime.alloc_bytes_per_update": perUpdate(u, float64(u.AllocBytes)),
		"runtime.mutex_wait_ms":          float64(u.MutexNs) / 1e6,
		"runtime.gc_cycles":              float64(u.GCCycles),
		"host.steal_ratio":               float64(u.StealTicks) / float64(max(u.CPUTicks, 1)),
		"gen.lag_p99_ms":                 percentile(genLag, 0.99),
		"trace.overhead_ratio":           perUpdate(t, float64(t.CPUNs)) / perUpdate(u, float64(u.CPUNs)),
	}
}
