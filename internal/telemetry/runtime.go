package telemetry

import (
	"math"
	"runtime/metrics"
)

// Runtime self-profiling metric names. Everything the flight recorder and
// the benchmarks promise about latency is conditional on the Go runtime
// behaving — a GC pause or a scheduling stall shows up in batch timelines as
// unexplained gaps, so the daemon exports the runtime's own view of those
// hazards next to the application series.
const (
	runtimeHeapLive     = "/memory/classes/heap/objects:bytes"
	runtimeGCCycles     = "/gc/cycles/total:gc-cycles"
	runtimeGoroutines   = "/sched/goroutines:goroutines"
	runtimeGCPauses     = "/gc/pauses:seconds"
	runtimeSchedLatency = "/sched/latencies:seconds"
	runtimeMutexWait    = "/sync/mutex/wait/total:seconds"
)

// runtimeReading is one scrape's read of the runtime/metrics samples the
// probes export. A sample the runtime does not support reads as 0.
type runtimeReading struct {
	heapLive, gcCycles, goroutines  uint64
	gcPauseMaxNS, schedLatencyMaxNS int64
	mutexWaitNS                     uint64
}

// readRuntime takes one metrics.Read of every exported sample.
func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: runtimeHeapLive}, {Name: runtimeGCCycles}, {Name: runtimeGoroutines},
		{Name: runtimeGCPauses}, {Name: runtimeSchedLatency}, {Name: runtimeMutexWait},
	}
	metrics.Read(s)
	return runtimeReading{
		heapLive:          uint64Value(s[0].Value),
		gcCycles:          uint64Value(s[1].Value),
		goroutines:        uint64Value(s[2].Value),
		gcPauseMaxNS:      histMaxNS(s[3].Value),
		schedLatencyMaxNS: histMaxNS(s[4].Value),
		mutexWaitNS:       uint64(float64Value(s[5].Value) * 1e9),
	}
}

// uint64Value returns a scalar sample (0 if the runtime does not support it).
func uint64Value(v metrics.Value) uint64 {
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// float64Value returns a float sample (0 if the runtime does not support
// it).
func float64Value(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// histMaxNS returns the upper edge, in nanoseconds, of the highest non-empty
// bucket of a duration histogram sample — a cheap "worst observed" summary
// that needs no histogram-shape agreement between runtime and registry. The
// +Inf upper edge of the last bucket falls back to its finite lower edge.
func histMaxNS(v metrics.Value) int64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = h.Buckets[i]
		}
		return int64(hi * 1e9)
	}
	return 0
}

// RegisterRuntimeMetrics registers the daemon's runtime self-profiling
// series on reg: live heap bytes, completed GC cycles, goroutine count,
// worst-observed GC pause and goroutine scheduling latency, and the total
// time goroutines have spent blocked on sync.Mutex and sync.RWMutex (the
// server's ingest lock among them). A scrape takes one metrics.Read, shared
// by every series. Call at most once per registry.
func RegisterRuntimeMetrics(reg *Registry) {
	rt := Scraped(reg, readRuntime)

	reg.GaugeFunc("dcsketch_runtime_heap_live_bytes",
		"Bytes of live heap objects (runtime/metrics heap/objects).",
		func() int64 { return int64(rt().heapLive) })
	reg.CounterFunc("dcsketch_runtime_gc_cycles_total",
		"Completed GC cycles.",
		func() uint64 { return rt().gcCycles })
	reg.GaugeFunc("dcsketch_runtime_goroutines",
		"Live goroutines.",
		func() int64 { return int64(rt().goroutines) })
	reg.GaugeFunc("dcsketch_runtime_gc_pause_max_ns",
		"Upper edge of the highest observed stop-the-world GC pause bucket.",
		func() int64 { return rt().gcPauseMaxNS })
	reg.GaugeFunc("dcsketch_runtime_sched_latency_max_ns",
		"Upper edge of the highest observed goroutine scheduling latency bucket.",
		func() int64 { return rt().schedLatencyMaxNS })
	reg.CounterFunc("dcsketch_runtime_mutex_wait_ns_total",
		"Approximate total time goroutines spent blocked on sync.Mutex and sync.RWMutex.",
		func() uint64 { return rt().mutexWaitNS })
}
