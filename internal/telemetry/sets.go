package telemetry

// This file defines the per-layer instrument bundles and their canonical
// series names, so the whole metric namespace is declared in one place.
//
// Naming convention (documented in DESIGN.md §10):
//
//	dcsketch_<layer>_<metric>[_<unit>][{label="v"}]
//
// Counters end in _total; durations are histograms in nanoseconds with an
// _ns suffix; sizes are histograms with no unit suffix. Layers register
// additional scrape-time probes (CounterFunc/GaugeFunc) for single-writer
// state read under their own locks — those names follow the same convention
// and are listed in the DESIGN.md inventory.

// MonitorMetrics is the live-instrument bundle for internal/monitor: the
// check counter and the check/query latency histograms. The alert lifecycle
// counters stay single-writer inside the monitor (under its mutex, beside
// the ring they describe) and are exported as scrape-time probes by the
// monitor's RegisterTelemetry, together with the sketch-health series.
type MonitorMetrics struct {
	// ChecksTotal counts calls to the periodic anomaly check.
	ChecksTotal *Counter
	// CheckLatency observes the wall time of one full check (query +
	// baseline update + alerting), in nanoseconds.
	CheckLatency *Histogram
	// QueryLatency observes the wall time of the top-k sketch query alone,
	// in nanoseconds.
	QueryLatency *Histogram
}

// NewMonitorMetrics registers the monitor bundle on reg.
func NewMonitorMetrics(reg *Registry) *MonitorMetrics {
	return &MonitorMetrics{
		ChecksTotal:  reg.Counter("dcsketch_monitor_checks_total", "Periodic anomaly checks run."),
		CheckLatency: reg.Histogram("dcsketch_monitor_check_latency_ns", "Wall time of one anomaly check in nanoseconds."),
		QueryLatency: reg.Histogram("dcsketch_monitor_query_latency_ns", "Wall time of the top-k sketch query in nanoseconds."),
	}
}

// ServerMetrics is the live-instrument bundle for internal/server: the
// query-latency histogram, attached after the server may already be serving.
// The server's counters are Counter fields of the Server itself, exported by
// its RegisterTelemetry as CounterFunc probes over their Load methods.
type ServerMetrics struct {
	// QueryLatency observes the wall time of serving one top-k query frame
	// (decode + query + reply encode), in nanoseconds.
	QueryLatency *Histogram
}

// NewServerMetrics registers the server bundle on reg.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	return &ServerMetrics{
		QueryLatency: reg.Histogram("dcsketch_server_query_latency_ns", "Wall time of serving one top-k query frame in nanoseconds."),
	}
}

// DetectorMetrics is the live-instrument bundle for the packet-path
// detector: per-packet and alarm counters recorded from the ingest path.
type DetectorMetrics struct {
	// PacketsTotal counts packets observed by the detector.
	PacketsTotal *Counter
	// CusumAlarmsTotal counts CUSUM threshold crossings (entering the
	// alarm state).
	CusumAlarmsTotal *Counter
}

// NewDetectorMetrics registers the detector bundle on reg.
func NewDetectorMetrics(reg *Registry) *DetectorMetrics {
	return &DetectorMetrics{
		PacketsTotal:     reg.Counter("dcsketch_detector_packets_total", "Packets observed by the detector."),
		CusumAlarmsTotal: reg.Counter("dcsketch_detector_cusum_alarms_total", "CUSUM threshold crossings."),
	}
}
