// Package telemetry is the repository's allocation-free instrumentation
// substrate: atomic counters and power-of-two-bucket latency histograms that
// hot paths can record into without locks and without touching the
// allocator, plus a Registry that exports every registered instrument and
// scrape-time probe as Prometheus text (WritePrometheus), expvar
// (PublishExpvar), and a structured Snapshot for embedders.
//
// The monitor of the paper runs *inside* the network path (§2's distributed
// monitoring architecture): an operator needs to see sketch health — level
// occupancy, singleton decode failures, fold latency — live, not just the
// top-k answer. That observability must not cost the Table-2 constants the
// repository reproduces, so the substrate splits the world in two:
//
//   - The record path (Counter.Inc/Add, Histogram.Observe) is lock-free
//     and allocation-free, proven by the //lint:allocfree call-graph
//     analyzer and ground-truthed by cmd/perfcheck against the compiler's
//     escape analysis. Instruments are cache-line padded so two
//     hot counters never false-share.
//
//   - The export path (WritePrometheus, Snapshot, scrape-time probe
//     functions registered with CounterFunc/GaugeFunc) may lock and
//     allocate freely; it runs at scrape cadence, not line rate.
//
// Single-writer structures (the dcs/tdcs sketches) do not pay even an
// uncontended atomic on their kernels: they keep plain counters owned by
// their single writer (dcs.QueryStats). A layer reads such state, and
// anything else behind its lock, once per scrape through Scraped, and its
// probes share that read. The substrate's atomics are for genuinely
// concurrent recorders: server connection handlers and the packet-path
// detector.
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
