// Package telemetry is the repository's allocation-free instrumentation
// substrate: atomic counters, gauges, and power-of-two-bucket latency
// histograms that hot paths can record into without locks and without
// touching the allocator, plus a Registry that exports every registered
// instrument as Prometheus text (WritePrometheus), expvar (PublishExpvar),
// and a structured Snapshot for embedders.
//
// The monitor of the paper runs *inside* the network path (§2's distributed
// monitoring architecture): an operator needs to see sketch health — level
// occupancy, singleton decode failures, fold latency — live, not just the
// top-k answer. That observability must not cost the Table-2 constants the
// repository reproduces, so the substrate splits the world in two:
//
//   - The record path (Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe)
//     is lock-free and allocation-free, proven by the //lint:allocfree
//     call-graph analyzer and ground-truthed by cmd/perfcheck against the
//     compiler's escape analysis. Instruments are cache-line padded so two
//     hot counters never false-share.
//
//   - The export path (WritePrometheus, Snapshot, scrape-time probe
//     functions registered with CounterFunc/GaugeFunc) may lock and
//     allocate freely; it runs at scrape cadence, not line rate.
//
// Single-writer structures (the dcs/tdcs sketches) do not pay even an
// uncontended atomic on their kernels: they keep plain counters owned by
// their single writer (dcs.QueryStats) and surface them through scrape-time
// probes taken under the owning layer's lock. The substrate's atomics are
// for genuinely concurrent recorders: pipeline workers, server connection
// handlers, the packet-path detector.
package telemetry

import "sync/atomic"

// cacheLine is the assumed cache-line size. Instruments pad their hot word
// out to this boundary so adjacent instruments in a metrics struct do not
// false-share under concurrent recording.
const cacheLine = 64

// Counter is a monotonically increasing cache-line-padded atomic counter.
// The zero value is ready to use, but counters are normally obtained from
// Registry.Counter so they are exported.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds 1.
//
//lint:allocfree
//lint:inline
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//lint:allocfree
//lint:inline
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
//
//lint:allocfree
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a cache-line-padded atomic gauge: a value that can go up and
// down (queue depths, live connections, last-observed levels).
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
//
//lint:allocfree
//lint:inline
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
//
//lint:allocfree
//lint:inline
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
//
//lint:allocfree
func (g *Gauge) Load() int64 { return g.v.Load() }
