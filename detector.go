package dcsketch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dcsketch/internal/cusum"
	"dcsketch/internal/dcs"
	"dcsketch/internal/monitor"
	"dcsketch/internal/stream"
	"dcsketch/internal/tcpflow"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/trace"
)

// Alert reports a destination whose half-open distinct-source population is
// anomalously high relative to its learned baseline profile.
type Alert struct {
	// Dest is the suspected victim (IPv4, host byte order).
	Dest uint32
	// Estimated is the estimated distinct-source frequency at detection.
	Estimated int64
	// Baseline is the destination's learned profile at detection.
	Baseline float64
	// AtUpdate is the stream position (update count) of the detection.
	AtUpdate uint64
}

// MonitorConfig parametrizes a Monitor. The zero value selects sensible
// defaults (tracking sketch with the paper's r=3, s=128; top-10 checks every
// 8192 updates; alert at 5x baseline with an absolute floor of 64 distinct
// sources).
type MonitorConfig struct {
	// SketchOptions configure the underlying tracking sketch.
	SketchOptions []Option
	// K is how many top destinations each periodic check inspects.
	K int
	// CheckInterval is the number of updates between tracking checks.
	CheckInterval int
	// BaselineAlpha is the EWMA smoothing factor of baseline profiles.
	BaselineAlpha float64
	// ThresholdFactor triggers an alert at ThresholdFactor x baseline.
	ThresholdFactor float64
	// MinFrequency is the absolute alert floor.
	MinFrequency int64
	// MaxAlerts bounds the retained-alert ring (default 1024): once full,
	// the oldest retained alert is evicted per new alert. AlertStats
	// reports how many were dropped.
	MaxAlerts int
	// OnAlert, if non-nil, is invoked synchronously for each alert.
	OnAlert func(Alert)
	// HalfOpenTimeout bounds, in packet-timestamp units (microseconds),
	// how long ProcessPacket retains half-open connection state before
	// evicting it (the attack signal in the sketch is preserved).
	// Zero selects 30 seconds; negative disables eviction.
	HalfOpenTimeout int64
	// MaxHalfOpenStates bounds ProcessPacket's connection-state table.
	MaxHalfOpenStates int
	// CUSUM optionally arms a Wang-et-al. SYN/FIN change-point tripwire
	// on the packet path (ProcessPacket), complementary to the sketch:
	// it fires on aggregate SYN-FIN imbalance without identifying a
	// victim. Read it with CUSUMAlarm.
	CUSUM *CUSUMConfig
}

// CUSUMConfig parametrizes the optional aggregate SYN-flood tripwire.
// Zero-valued fields take the listed defaults.
type CUSUMConfig struct {
	// Drift is the CUSUM drift term (default 0.35, Wang et al.'s
	// operating point).
	Drift float64
	// Threshold is the alarm level (default 2).
	Threshold float64
	// Alpha is the FIN-baseline EWMA factor (default 0.2).
	Alpha float64
	// IntervalPackets is the observation interval length in packets
	// (default 1024; Wang et al. use wall-clock intervals, which a
	// trace-driven monitor approximates by packet count).
	IntervalPackets int
}

// Monitor is the end-to-end DDoS MONITOR of the paper's architecture
// (Fig. 1): it ingests flow updates — or raw TCP packet observations via
// ProcessPacket — maintains a Tracking Distinct-Count Sketch, compares the
// tracked top-k against EWMA baseline profiles, and raises alerts.
type Monitor struct {
	inner *monitor.Monitor
	conv  *tcpflow.Converter
	sink  stream.Sink

	synfin         *cusum.SYNFIN
	cusumInterval  int
	packetsInSlice int
	cusumWasAlarm  bool

	// cusumStat and cusumAlarm mirror the SYN/FIN statistic after each
	// interval close as lock-free atomics (Float64bits for the statistic),
	// because the monitor's alert-evidence probe samples them from inside
	// its own critical section — possibly on a different goroutine than
	// the single-caller packet path that owns synfin.
	cusumStat  atomic.Uint64
	cusumAlarm atomic.Bool

	// packets counts packets observed by ProcessPacket; cusumAlarms counts
	// CUSUM alarm onsets (off->on transitions).
	packets, cusumAlarms telemetry.Counter
}

// NewMonitor builds a monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	var onAlert func(monitor.Alert)
	if cfg.OnAlert != nil {
		cb := cfg.OnAlert
		onAlert = func(a monitor.Alert) { cb(Alert(a)) }
	}
	inner, err := monitor.New(monitor.Config{
		Sketch:          buildConfig(cfg.SketchOptions),
		K:               cfg.K,
		CheckInterval:   cfg.CheckInterval,
		BaselineAlpha:   cfg.BaselineAlpha,
		ThresholdFactor: cfg.ThresholdFactor,
		MinFrequency:    cfg.MinFrequency,
		MaxAlerts:       cfg.MaxAlerts,
	}, onAlert)
	if err != nil {
		return nil, err
	}
	conv := tcpflow.New()
	conv.Timeout = cfg.HalfOpenTimeout
	conv.MaxStates = cfg.MaxHalfOpenStates
	m := &Monitor{inner: inner, conv: conv}
	m.sink = stream.SinkFunc(inner.Update)
	if cfg.CUSUM != nil {
		c := *cfg.CUSUM
		if c.Drift == 0 {
			c.Drift = 0.35
		}
		if c.Threshold == 0 {
			c.Threshold = 2
		}
		if c.Alpha == 0 {
			c.Alpha = 0.2
		}
		if c.IntervalPackets == 0 {
			c.IntervalPackets = 1024
		}
		if c.IntervalPackets < 1 {
			return nil, fmt.Errorf("dcsketch: CUSUM.IntervalPackets = %d, must be >= 1", c.IntervalPackets)
		}
		synfin, err := cusum.NewSYNFIN(c.Drift, c.Threshold, c.Alpha)
		if err != nil {
			return nil, err
		}
		m.synfin = synfin
		m.cusumInterval = c.IntervalPackets
		// Feed the tripwire into the alert-evidence ledger: each alert
		// snapshot then records whether the aggregate SYN/FIN view agreed
		// with the per-victim sketch view at onset.
		inner.SetCUSUMProbe(func() (float64, float64, bool) {
			return math.Float64frombits(m.cusumStat.Load()),
				synfin.Threshold(), m.cusumAlarm.Load()
		})
	}
	return m, nil
}

// Update consumes one flow update directly (+1 half-open created, -1
// legitimized/torn down).
func (m *Monitor) Update(src, dst uint32, delta int64) { m.inner.Update(src, dst, delta) }

// rekeyPool recycles the re-keying buffers of Monitor.UpdateBatch; the
// monitor is safe for concurrent producers, so the scratch cannot live on
// the struct.
var rekeyPool = sync.Pool{
	New: func() any {
		b := make([]dcs.KeyDelta, 0, 256)
		return &b
	},
}

// UpdateBatch consumes a batch of flow updates under one lock acquisition
// through the sketch's batched kernel — the fast path when updates arrive in
// groups. Equivalent to calling Update for each record in order; the
// periodic check fires at most once per batch.
func (m *Monitor) UpdateBatch(batch []FlowUpdate) {
	if len(batch) == 0 {
		return
	}
	bp := rekeyPool.Get().(*[]dcs.KeyDelta)
	rekeyed := appendKeyDeltas((*bp)[:0], batch)
	m.inner.UpdateBatch(rekeyed)
	// Pool the (possibly regrown) backing array at length zero so the next
	// Get starts empty instead of replaying stale key-deltas.
	*bp = rekeyed[:0]
	rekeyPool.Put(bp)
}

// Packet is a raw TCP packet observation for ProcessPacket.
type Packet struct {
	// Time is a logical timestamp in microseconds.
	Time uint64
	// Src and Dst are IPv4 addresses (host byte order).
	Src, Dst uint32
	// SrcPort and DstPort are the transport ports.
	SrcPort, DstPort uint16
	// TCP flags of the packet.
	SYN, ACK, RST, FIN bool
}

func (p Packet) record() trace.Record {
	var f trace.TCPFlags
	if p.SYN {
		f |= trace.FlagSYN
	}
	if p.ACK {
		f |= trace.FlagACK
	}
	if p.RST {
		f |= trace.FlagRST
	}
	if p.FIN {
		f |= trace.FlagFIN
	}
	return trace.Record{
		Time: p.Time, Src: p.Src, Dst: p.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort, Flags: f,
	}
}

// ProcessPacket runs the TCP half-open state machine over one packet
// observation and feeds the resulting flow updates (if any) into the
// monitor: a client SYN inserts, the completing ACK or an RST deletes.
// Packets should arrive in non-decreasing Time order.
func (m *Monitor) ProcessPacket(p Packet) {
	m.packets.Inc()
	m.conv.Process(p.record(), m.sink)
	if m.synfin == nil {
		return
	}
	switch {
	case p.SYN && !p.ACK:
		m.synfin.RecordSYN()
	case p.FIN || p.RST:
		m.synfin.RecordFIN()
	}
	m.packetsInSlice++
	if m.packetsInSlice >= m.cusumInterval {
		m.packetsInSlice = 0
		m.synfin.EndInterval()
		m.cusumStat.Store(math.Float64bits(m.synfin.Statistic()))
		// Count alarm onsets (off->on transitions), not in-alarm intervals.
		alarm := m.synfin.InAlarm()
		m.cusumAlarm.Store(alarm)
		if alarm && !m.cusumWasAlarm {
			m.cusumAlarms.Inc()
		}
		m.cusumWasAlarm = alarm
	}
}

// CUSUMAlarm reports whether the optional SYN/FIN change-point tripwire is
// in alarm. Always false when MonitorConfig.CUSUM was nil.
func (m *Monitor) CUSUMAlarm() bool {
	return m.synfin != nil && m.synfin.InAlarm()
}

// TopK returns the monitor's current top-k tracked destinations.
func (m *Monitor) TopK(k int) []Estimate { return convertEstimates(m.inner.TopK(k)) }

// Alerts returns all alerts raised so far.
func (m *Monitor) Alerts() []Alert {
	in := m.inner.Alerts()
	out := make([]Alert, len(in))
	for i, a := range in {
		out[i] = Alert(a)
	}
	return out
}

// Alerting reports whether dest is currently in an alert excursion.
func (m *Monitor) Alerting(dest uint32) bool { return m.inner.Alerting(dest) }

// AlertStats reports the alert bookkeeping counters: every alert ever
// raised, anomalous observations suppressed by hysteresis, alerts evicted
// from the bounded ring, and how many the ring currently retains.
type AlertStats struct {
	Raised     uint64
	Suppressed uint64
	Dropped    uint64
	Retained   int
}

// AlertStats returns the current alert bookkeeping counters.
func (m *Monitor) AlertStats() AlertStats { return AlertStats(m.inner.AlertStats()) }

// Registry aggregates runtime telemetry for export as Prometheus text
// (Registry.Handler, Registry.WritePrometheus) or as a structured
// Registry.Snapshot. The alias makes the internal implementation usable by
// importers of this package.
type Registry = telemetry.Registry

// NewTelemetryRegistry builds an empty telemetry registry to pass to
// RegisterTelemetry.
func NewTelemetryRegistry() *Registry { return telemetry.NewRegistry() }

// RegisterTelemetry registers the packet-path counters and every
// monitor-layer and sketch-layer series on reg; reg's Prometheus export
// then covers this monitor. Every instrument counts from NewMonitor, so
// the first scrape shows traffic from before the registration too. Call at
// most once per monitor and registry pair, before or while the monitor is
// ingesting.
func (m *Monitor) RegisterTelemetry(reg *Registry) {
	reg.CounterFunc("dcsketch_detector_packets_total",
		"Packets observed by the detector.",
		m.packets.Load)
	reg.CounterFunc("dcsketch_detector_cusum_alarms_total",
		"CUSUM threshold crossings.",
		m.cusumAlarms.Load)
	m.inner.RegisterTelemetry(reg)
}

// Updates returns the number of flow updates consumed.
func (m *Monitor) Updates() uint64 { return m.inner.Updates() }

// HalfOpenStates returns the number of connections the packet state machine
// currently tracks.
func (m *Monitor) HalfOpenStates() int { return m.conv.HalfOpen() }

// Collector merges the sketches of several edge monitors into one
// network-wide view. All merged monitors must share identical sketch
// options (seed included).
type Collector struct {
	inner *monitor.Collector
}

// NewCollector builds a collector over the given sketch options.
func NewCollector(opts ...Option) (*Collector, error) {
	inner, err := monitor.NewCollector(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Collector{inner: inner}, nil
}

// Gather merges the given monitors' sketches, replacing any prior content.
func (c *Collector) Gather(monitors ...*Monitor) error {
	inner := make([]*monitor.Monitor, len(monitors))
	for i, m := range monitors {
		inner[i] = m.inner
	}
	return c.inner.Gather(inner...)
}

// TopK returns the network-wide top-k after Gather.
func (c *Collector) TopK(k int) []Estimate { return convertEstimates(c.inner.TopK(k)) }

// SuperspreaderEstimate is a source with its estimated distinct-destination
// fan-out.
type SuperspreaderEstimate struct {
	Src   uint32
	Count int64
}

// Superspreader tracks the top-k sources by the number of distinct
// destinations they contact — port-scan and worm detection (paper §1,
// footnote 1) — using the same sketch with the pair reversed: the sketch's
// destination slot carries the source whose fan-out is counted.
type Superspreader struct {
	inner *tdcs.Sketch
}

// NewSuperspreader builds a superspreader tracker.
func NewSuperspreader(opts ...Option) (*Superspreader, error) {
	inner, err := tdcs.New(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Superspreader{inner: inner}, nil
}

// Update observes one flow update.
func (s *Superspreader) Update(src, dst uint32, delta int64) { s.inner.Update(dst, src, delta) }

// Insert records a probe from src to dst.
func (s *Superspreader) Insert(src, dst uint32) { s.inner.Update(dst, src, 1) }

// Delete removes a probe (e.g. the connection completed legitimately).
func (s *Superspreader) Delete(src, dst uint32) { s.inner.Update(dst, src, -1) }

// TopK returns the k sources contacting the most distinct destinations.
func (s *Superspreader) TopK(k int) []SuperspreaderEstimate {
	return convertSources(s.inner.TopK(k))
}

// Threshold returns all sources contacting at least tau distinct
// destinations.
func (s *Superspreader) Threshold(tau int64) []SuperspreaderEstimate {
	return convertSources(s.inner.Threshold(tau))
}

// convertSources reads the reversed sketch's destination slot back as the
// source it carries.
func convertSources(in []dcs.Estimate) []SuperspreaderEstimate {
	out := make([]SuperspreaderEstimate, len(in))
	for i, e := range in {
		out[i] = SuperspreaderEstimate{Src: e.Dest, Count: e.F}
	}
	return out
}

// assert the public sink shapes stay compatible with the stream package.
var (
	_ stream.Sink = (*Monitor)(nil)
	_ stream.Sink = (*Superspreader)(nil)
)
