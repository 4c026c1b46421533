package monitor

import (
	"strings"
	"sync"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/telemetry"
)

// ringConfig is a monitor tuned so every new destination alerts on its
// first check: check every update, no frequency floor beyond 1, and a
// 4-slot alert ring.
func ringConfig() Config {
	return Config{
		Sketch:          dcs.Config{Levels: 8, Tables: 2, Buckets: 64, Seed: 11},
		K:               32,
		CheckInterval:   1,
		ThresholdFactor: 2,
		MinFrequency:    1,
		MaxAlerts:       4,
	}
}

// TestAlertRingBounded is the regression test for unbounded Monitor.alerts
// growth: raising far more alerts than MaxAlerts must keep the retained
// slice at MaxAlerts, count the evictions, and keep the retained window the
// most recent alerts in chronological order.
func TestAlertRingBounded(t *testing.T) {
	m, err := New(ringConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const dests = 20
	for d := uint32(1); d <= dests; d++ {
		m.Update(100+d, d, 1)
	}
	st := m.AlertStats()
	if st.Raised != dests {
		t.Fatalf("Raised = %d, want %d", st.Raised, dests)
	}
	if st.Retained != 4 {
		t.Fatalf("Retained = %d, want 4", st.Retained)
	}
	if st.Dropped != dests-4 {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, dests-4)
	}
	if st.Suppressed == 0 {
		t.Fatal("no suppressed observations despite sustained excursions")
	}
	alerts := m.Alerts()
	if len(alerts) != 4 {
		t.Fatalf("len(Alerts()) = %d, want 4", len(alerts))
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].AtUpdate < alerts[i-1].AtUpdate {
			t.Fatalf("alerts out of order: %+v before %+v", alerts[i-1], alerts[i])
		}
	}
	if newest := alerts[len(alerts)-1].Dest; newest != dests {
		t.Fatalf("newest retained alert is dest %d, want %d", newest, dests)
	}
}

func TestMaxAlertsDefaultAndValidation(t *testing.T) {
	m, err := New(Config{Sketch: dcs.Config{Levels: 4, Tables: 1, Buckets: 16}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().MaxAlerts; got != DefaultMaxAlerts {
		t.Fatalf("default MaxAlerts = %d, want %d", got, DefaultMaxAlerts)
	}
	cfg := ringConfig()
	cfg.MaxAlerts = -1
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("negative MaxAlerts accepted")
	}
}

// TestMonitorTelemetry registers the monitor on a registry, drives traffic
// through checks, and asserts the exported series reflect the activity.
func TestMonitorTelemetry(t *testing.T) {
	m, err := New(ringConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.RegisterTelemetry(reg)
	for d := uint32(1); d <= 10; d++ {
		m.Update(100+d, d, 1)
	}
	vals := map[string]float64{}
	var hists = map[string]*telemetry.HistogramSnapshot{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
		hists[s.Name] = s.Hist
	}
	if vals["dcsketch_monitor_checks_total"] != 10 {
		t.Fatalf("checks_total = %v, want 10", vals["dcsketch_monitor_checks_total"])
	}
	if vals["dcsketch_monitor_updates_total"] != 10 {
		t.Fatalf("updates_total = %v", vals["dcsketch_monitor_updates_total"])
	}
	if vals["dcsketch_monitor_alerts_raised_total"] != 10 {
		t.Fatalf("alerts_raised_total = %v", vals["dcsketch_monitor_alerts_raised_total"])
	}
	if vals["dcsketch_sketch_queries_total"] == 0 {
		t.Fatal("sketch queries_total is zero after 10 checks")
	}
	if vals["dcsketch_sketch_decode_singletons_total"] == 0 {
		t.Fatal("decode_singletons_total is zero")
	}
	if vals["dcsketch_sketch_sample_size"] == 0 {
		t.Fatal("sample_size gauge is zero")
	}
	if vals["dcsketch_sketch_levels_nonempty"] == 0 {
		t.Fatal("levels_nonempty gauge is zero")
	}
	for _, name := range []string{"dcsketch_monitor_check_latency_ns", "dcsketch_monitor_query_latency_ns"} {
		h := hists[name]
		if h == nil || h.Count != 10 {
			t.Fatalf("%s count = %+v, want 10 observations", name, h)
		}
	}
	out := string(renderProm(t, reg))
	if err := telemetry.ValidatePrometheusText([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if !strings.Contains(out, "dcsketch_monitor_check_latency_ns_count 10") {
		t.Fatalf("rendered output missing check-latency count:\n%s", out)
	}
}

// TestScrapeReadsHealthOnce pins what one scrape costs the monitor lock: a
// Snapshot, and a Prometheus rendering, each read the sketch health once,
// shared by the 13 sketch-health probes, rather than once per probe.
func TestScrapeReadsHealthOnce(t *testing.T) {
	m, err := New(ringConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.RegisterTelemetry(reg)
	for d := uint32(1); d <= 10; d++ {
		m.Update(100+d, d, 1)
	}
	reads := func() uint64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.healthReads
	}
	before := reads()
	samples := reg.Snapshot()
	if got := reads() - before; got != 1 {
		t.Fatalf("one Snapshot read the sketch health %d times, want 1", got)
	}
	for _, s := range samples {
		if s.Name == "dcsketch_monitor_updates_total" && s.Value != 10 {
			t.Fatalf("updates_total = %v, want 10", s.Value)
		}
	}
	before = reads()
	renderProm(t, reg)
	if got := reads() - before; got != 1 {
		t.Fatalf("one WritePrometheus read the sketch health %d times, want 1", got)
	}
}

// TestScrapeConcurrentWithUpdates runs scrapes on two goroutines while a
// third feeds updates: the shared scrape state is written by every scrape's
// hook and read by every probe. Run under -race.
func TestScrapeConcurrentWithUpdates(t *testing.T) {
	m, err := New(ringConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.RegisterTelemetry(reg)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, s := range reg.Snapshot() {
					if s.Name == "dcsketch_monitor_updates_total" && s.Value > 1000 {
						t.Errorf("updates_total = %v, more than were fed", s.Value)
					}
				}
			}
		}()
	}
	for i := uint32(0); i < 1000; i++ {
		m.Update(i, 7, 1)
	}
	wg.Wait()
}

func renderProm(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}
