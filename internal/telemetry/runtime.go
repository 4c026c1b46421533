package telemetry

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
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

// runtimeSampler reads the runtime/metrics samples the registry probes need,
// coalescing all probe calls of one scrape into a single metrics.Read: the
// registry invokes each probe separately, but one Read covers them all and
// stays valid for the refresh window.
type runtimeSampler struct {
	mu      sync.Mutex
	samples []metrics.Sample
	index   map[string]int
	last    time.Time
	maxAge  time.Duration
}

func newRuntimeSampler(names []string, maxAge time.Duration) *runtimeSampler {
	s := &runtimeSampler{
		samples: make([]metrics.Sample, len(names)),
		index:   make(map[string]int, len(names)),
		maxAge:  maxAge,
	}
	for i, n := range names {
		s.samples[i].Name = n
		s.index[n] = i
	}
	metrics.Read(s.samples)
	s.last = time.Now()
	return s
}

// refreshLocked re-reads the samples when the cached view is stale.
func (s *runtimeSampler) refreshLocked() {
	if time.Since(s.last) > s.maxAge {
		metrics.Read(s.samples)
		s.last = time.Now()
	}
}

// uint64Value returns a scalar sample (0 if the runtime does not support it).
func (s *runtimeSampler) uint64Value(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	if v := s.samples[s.index[name]].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// float64Value returns a float sample (0 if the runtime does not support
// it).
func (s *runtimeSampler) float64Value(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	if v := s.samples[s.index[name]].Value; v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// histMaxNS returns the upper edge, in nanoseconds, of the highest non-empty
// bucket of a duration histogram sample — a cheap "worst observed" summary
// that needs no histogram-shape agreement between runtime and registry. The
// +Inf upper edge of the last bucket falls back to its finite lower edge.
func (s *runtimeSampler) histMaxNS(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	v := s.samples[s.index[name]].Value
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
// server's ingest lock among them). Probes sample
// runtime/metrics at scrape cadence through a shared cached reader, so a
// scrape costs one metrics.Read regardless of how many series it exports.
// Call at most once per registry.
func RegisterRuntimeMetrics(reg *Registry) {
	s := newRuntimeSampler([]string{
		runtimeHeapLive, runtimeGCCycles, runtimeGoroutines,
		runtimeGCPauses, runtimeSchedLatency, runtimeMutexWait,
	}, 250*time.Millisecond)

	reg.GaugeFunc("dcsketch_runtime_heap_live_bytes",
		"Bytes of live heap objects (runtime/metrics heap/objects).",
		func() int64 { return int64(s.uint64Value(runtimeHeapLive)) })
	reg.CounterFunc("dcsketch_runtime_gc_cycles_total",
		"Completed GC cycles.",
		func() uint64 { return s.uint64Value(runtimeGCCycles) })
	reg.GaugeFunc("dcsketch_runtime_goroutines",
		"Live goroutines.",
		func() int64 { return int64(s.uint64Value(runtimeGoroutines)) })
	reg.GaugeFunc("dcsketch_runtime_gc_pause_max_ns",
		"Upper edge of the highest observed stop-the-world GC pause bucket.",
		func() int64 { return s.histMaxNS(runtimeGCPauses) })
	reg.GaugeFunc("dcsketch_runtime_sched_latency_max_ns",
		"Upper edge of the highest observed goroutine scheduling latency bucket.",
		func() int64 { return s.histMaxNS(runtimeSchedLatency) })
	reg.CounterFunc("dcsketch_runtime_mutex_wait_ns_total",
		"Approximate total time goroutines spent blocked on sync.Mutex and sync.RWMutex.",
		func() uint64 { return uint64(s.float64Value(runtimeMutexWait) * 1e9) })
}
