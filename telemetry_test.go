package dcsketch

import (
	"strings"
	"testing"

	"dcsketch/internal/telemetry"
)

// TestMonitorRegisterTelemetry drives the packet path of a monitor through
// balanced traffic and then a SYN flood, and checks the detector-, monitor-,
// and sketch-layer series all report it: once with the monitor registered
// before the traffic, and once after it, where the first scrape must show
// the same traffic because every instrument counts from NewMonitor.
func TestMonitorRegisterTelemetry(t *testing.T) {
	for _, late := range []bool{false, true} {
		name := "registered-before-traffic"
		if late {
			name = "registered-after-traffic"
		}
		t.Run(name, func(t *testing.T) { checkMonitorTelemetry(t, late) })
	}
}

func checkMonitorTelemetry(t *testing.T, late bool) {
	m, err := NewMonitor(MonitorConfig{
		SketchOptions: []Option{WithSeed(33)},
		CheckInterval: 100,
		MinFrequency:  50,
		MaxAlerts:     8,
		CUSUM:         &CUSUMConfig{IntervalPackets: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewTelemetryRegistry()
	if !late {
		m.RegisterTelemetry(reg)
	}

	var packets float64
	now := uint64(0)
	for i := uint32(0); i < 500; i++ {
		now += 10
		client := 0x0a000000 + i%300
		m.ProcessPacket(Packet{Time: now, Src: client, Dst: 9, SrcPort: uint16(i), DstPort: 80, SYN: true})
		m.ProcessPacket(Packet{Time: now + 1, Src: client, Dst: 9, SrcPort: uint16(i), DstPort: 80, ACK: true})
		m.ProcessPacket(Packet{Time: now + 2, Src: client, Dst: 9, SrcPort: uint16(i), DstPort: 80, FIN: true})
		packets += 3
	}
	for i := uint32(0); i < 2000; i++ {
		now += 10
		m.ProcessPacket(Packet{Time: now, Src: 0xc0000000 + i, Dst: 443, SrcPort: 7, DstPort: 443, SYN: true})
		packets++
	}
	if !m.CUSUMAlarm() {
		t.Fatal("flood did not trip the CUSUM")
	}
	if late {
		m.RegisterTelemetry(reg)
	}

	vals := map[string]float64{}
	hists := map[string]*telemetry.HistogramSnapshot{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
		hists[s.Name] = s.Hist
	}
	if vals["dcsketch_detector_packets_total"] != packets {
		t.Errorf("packets_total = %v, want %v", vals["dcsketch_detector_packets_total"], packets)
	}
	// One off->on transition, not one count per in-alarm interval.
	if vals["dcsketch_detector_cusum_alarms_total"] != 1 {
		t.Errorf("cusum_alarms_total = %v, want 1", vals["dcsketch_detector_cusum_alarms_total"])
	}
	if vals["dcsketch_monitor_updates_total"] == 0 {
		t.Error("monitor updates_total is zero despite packet-derived flow updates")
	}
	if vals["dcsketch_monitor_alerts_raised_total"] == 0 {
		t.Error("alerts_raised_total is zero despite the flood")
	}
	if vals["dcsketch_sketch_queries_total"] == 0 {
		t.Error("sketch queries_total is zero despite periodic checks")
	}
	// Every check is counted and timed twice: the whole check and its query.
	checks := vals["dcsketch_monitor_checks_total"]
	if want := float64(m.Updates() / 100); checks != want {
		t.Errorf("checks_total = %v, want %v (one per 100 updates)", checks, want)
	}
	for _, name := range []string{"dcsketch_monitor_check_latency_ns", "dcsketch_monitor_query_latency_ns"} {
		if h := hists[name]; h == nil || float64(h.Count) != checks {
			t.Errorf("%s = %+v, want %v observations", name, h, checks)
		}
	}

	st := m.AlertStats()
	if st.Raised == 0 || st.Retained == 0 {
		t.Fatalf("AlertStats = %+v, want alerts raised and retained", st)
	}
	if st.Retained > 8 {
		t.Fatalf("Retained = %d exceeds MaxAlerts 8", st.Retained)
	}
	if uint64(st.Retained)+st.Dropped != st.Raised {
		t.Fatalf("AlertStats inconsistent: %+v", st)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheusText([]byte(sb.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}
