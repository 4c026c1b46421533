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

// TestRuntimeMutexWaitCounts checks the mutex-wait counter moves when a
// goroutine blocks on a held sync.Mutex.
func TestRuntimeMutexWaitCounts(t *testing.T) {
	var mu sync.Mutex
	mu.Lock()
	blocked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(blocked)
		mu.Lock()
		mu.Unlock()
		close(done)
	}()
	<-blocked
	time.Sleep(20 * time.Millisecond)
	mu.Unlock()
	<-done

	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	for _, s := range reg.Snapshot() {
		if s.Name == "dcsketch_runtime_mutex_wait_ns_total" {
			if s.Value <= 0 {
				t.Fatalf("mutex_wait_ns_total = %v after a goroutine blocked ~20ms on a mutex, want > 0", s.Value)
			}
			return
		}
	}
	t.Fatal("dcsketch_runtime_mutex_wait_ns_total not registered")
}
