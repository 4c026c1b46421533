package telemetry

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRuntimeMetricsExport registers the self-profiling gauges and checks
// they render into the Prometheus text with plausible values.
func TestRuntimeMetricsExport(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	runtime.GC() // force at least one cycle so the GC series are non-trivial

	var found = map[string]bool{}
	for _, s := range reg.Snapshot() {
		found[s.Name] = true
		switch s.Name {
		case "dcsketch_runtime_heap_live_bytes":
			if s.Value <= 0 {
				t.Errorf("heap_live_bytes = %v, want > 0", s.Value)
			}
		case "dcsketch_runtime_goroutines":
			if s.Value < 1 {
				t.Errorf("goroutines = %v, want >= 1", s.Value)
			}
		case "dcsketch_runtime_gc_cycles_total":
			if s.Value < 1 {
				t.Errorf("gc_cycles_total = %v, want >= 1 after runtime.GC", s.Value)
			}
		case "dcsketch_runtime_gc_pause_max_ns", "dcsketch_runtime_sched_latency_max_ns", "dcsketch_runtime_mutex_wait_ns_total":
			if s.Value < 0 {
				t.Errorf("%s = %v, want >= 0", s.Name, s.Value)
			}
		}
	}
	for _, name := range []string{
		"dcsketch_runtime_heap_live_bytes",
		"dcsketch_runtime_gc_cycles_total",
		"dcsketch_runtime_goroutines",
		"dcsketch_runtime_gc_pause_max_ns",
		"dcsketch_runtime_sched_latency_max_ns",
		"dcsketch_runtime_mutex_wait_ns_total",
	} {
		if !found[name] {
			t.Errorf("series %s not registered", name)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dcsketch_runtime_heap_live_bytes") {
		t.Fatal("runtime series missing from Prometheus text")
	}
}

// TestRuntimeMutexWaitCounts checks the mutex-wait counter moves when
// goroutines block on a held sync.Mutex. The runtime times a wait on only
// one in eight goroutine block transitions, so a single blocked goroutine is
// usually not recorded: the test keeps blocking fresh goroutines until the
// counter moves, under a deadline, scraping one registry after each round.
func TestRuntimeMutexWaitCounts(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		blockOnHeldMutex(8, 2*time.Millisecond)
		if v := mutexWaitNS(t, reg); v > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("mutex_wait_ns_total = 0 after 10s of goroutines blocking on a held mutex, want > 0")
		}
	}
}

// blockOnHeldMutex starts n goroutines that block on a mutex held for d,
// and returns once all of them have acquired and released it.
func blockOnHeldMutex(n int, d time.Duration) {
	var mu sync.Mutex
	var started, done sync.WaitGroup
	mu.Lock()
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			mu.Lock()
			mu.Unlock()
		}()
	}
	started.Wait()
	time.Sleep(d)
	mu.Unlock()
	done.Wait()
}

// mutexWaitNS scrapes dcsketch_runtime_mutex_wait_ns_total from reg.
func mutexWaitNS(t *testing.T, reg *Registry) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == "dcsketch_runtime_mutex_wait_ns_total" {
			return s.Value
		}
	}
	t.Fatal("dcsketch_runtime_mutex_wait_ns_total not registered")
	return 0
}
