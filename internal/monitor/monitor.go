// Package monitor implements the DDoS MONITOR of the paper's architecture
// (Fig. 1): a component that consumes one or more flow-update streams,
// maintains a Tracking Distinct-Count Sketch, periodically evaluates the
// top-k distinct-source frequencies against baseline activity profiles
// (EWMA over time, per §2: "comparing against 'baseline' profiles of network
// activity created over longer periods"), and raises alerts for destinations
// whose half-open population is anomalously large.
//
// Multiple edge monitors can run independently (one per ingress point) and a
// Collector merges their sketches — the sketch is a linear stream summary,
// so the merged sketch is exactly the sketch of the union stream.
package monitor

import (
	"fmt"
	"sync"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/telemetry"
)

// Default monitor parameters.
const (
	DefaultK               = 10
	DefaultCheckInterval   = 8192
	DefaultBaselineAlpha   = 0.05
	DefaultThresholdFactor = 5.0
	DefaultMinFrequency    = 64
	DefaultMaxAlerts       = 1024
)

// Config parametrizes a Monitor. Zero fields take package defaults.
type Config struct {
	// Sketch configures the underlying tracking sketch. All monitors
	// that will be merged by one Collector must share it (seed included).
	Sketch dcs.Config
	// K is how many top destinations each check inspects.
	K int
	// CheckInterval is the number of stream updates between checks —
	// continuous tracking is cheap (O(k log k)), so small intervals are
	// viable; this is the knob Fig. 9 sweeps as "query frequency".
	CheckInterval int
	// BaselineAlpha is the EWMA smoothing factor of the per-destination
	// baseline profile.
	BaselineAlpha float64
	// ThresholdFactor raises an alert when a destination's estimated
	// frequency exceeds ThresholdFactor times its baseline.
	ThresholdFactor float64
	// MinFrequency is an absolute floor below which no alert fires,
	// suppressing noise from tiny estimates.
	MinFrequency int64
	// MaxAlerts bounds the retained-alert ring: once more than MaxAlerts
	// alerts have been raised without being read, each new alert evicts
	// the oldest (counted in AlertStats.Dropped). Long-running monitors
	// previously grew the alert slice without bound.
	MaxAlerts int
	// MaxEvidence bounds the alert-evidence ledger (see Evidence); once
	// full, each new alert onset evicts the oldest retained entry.
	MaxEvidence int
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = DefaultCheckInterval
	}
	if c.BaselineAlpha == 0 {
		c.BaselineAlpha = DefaultBaselineAlpha
	}
	if c.ThresholdFactor == 0 {
		c.ThresholdFactor = DefaultThresholdFactor
	}
	if c.MinFrequency == 0 {
		c.MinFrequency = DefaultMinFrequency
	}
	if c.MaxAlerts == 0 {
		c.MaxAlerts = DefaultMaxAlerts
	}
	if c.MaxEvidence == 0 {
		c.MaxEvidence = DefaultMaxEvidence
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("monitor: K = %d, must be >= 1", c.K)
	case c.CheckInterval < 1:
		return fmt.Errorf("monitor: CheckInterval = %d, must be >= 1", c.CheckInterval)
	case c.BaselineAlpha <= 0 || c.BaselineAlpha > 1:
		return fmt.Errorf("monitor: BaselineAlpha = %v, must be in (0,1]", c.BaselineAlpha)
	case c.ThresholdFactor <= 1:
		return fmt.Errorf("monitor: ThresholdFactor = %v, must be > 1", c.ThresholdFactor)
	case c.MinFrequency < 1:
		return fmt.Errorf("monitor: MinFrequency = %d, must be >= 1", c.MinFrequency)
	case c.MaxAlerts < 1:
		return fmt.Errorf("monitor: MaxAlerts = %d, must be >= 1", c.MaxAlerts)
	case c.MaxEvidence < 1:
		return fmt.Errorf("monitor: MaxEvidence = %d, must be >= 1", c.MaxEvidence)
	}
	return nil
}

// Alert reports a destination whose half-open distinct-source population is
// anomalously high.
type Alert struct {
	// Dest is the suspected victim.
	Dest uint32
	// Estimated is the estimated distinct-source frequency at detection.
	Estimated int64
	// Baseline is the destination's EWMA profile at detection.
	Baseline float64
	// AtUpdate is the stream position (update count) of the detection.
	AtUpdate uint64
}

// Monitor is a single DDoS MONITOR instance. All methods are safe for
// concurrent use: the tracking sketch is single-writer by contract
// (internal/dcs), so the monitor serializes every access through one mutex —
// the mutex lives with the state it protects, and the sketchlint lockcheck
// analyzer enforces the pairing.
type Monitor struct {
	cfg Config

	// mu guards all mutable monitor state below.
	mu sync.Mutex

	// sketch is the tracking synopsis. guarded by mu
	sketch *tdcs.Sketch
	// baseline holds per-destination EWMA profiles of estimated
	// frequency, built only from top-k observations (the only
	// destinations a small-space monitor ever resolves). guarded by mu
	baseline map[uint32]float64
	// basevar holds per-destination EWMA variance of the estimate around
	// its baseline, learned with the same alpha and the same frozen-during-
	// excursion rule; snapshotted into alert evidence. guarded by mu
	basevar map[uint32]float64
	// alerting marks destinations currently above threshold, giving the
	// alert stream hysteresis: one alert per excursion, re-armed when
	// the frequency falls back to half the trigger level, whether or not
	// the destination is still in the top-k. guarded by mu
	alerting map[uint32]bool
	// alerts is a bounded ring of the most recently raised alerts
	// (capacity cfg.MaxAlerts); alertHead indexes the oldest retained
	// entry once the ring is full. guarded by mu
	alerts []Alert
	// alertHead is the ring's oldest-entry index. guarded by mu
	alertHead int
	// alertsRaised counts every alert ever raised. guarded by mu
	alertsRaised uint64
	// alertsSuppressed counts anomalous observations suppressed by
	// hysteresis (destination already in an excursion). guarded by mu
	alertsSuppressed uint64
	// alertsDropped counts alerts evicted from the full ring. guarded by mu
	alertsDropped uint64
	// evidence is the bounded alert-evidence ledger (capacity
	// cfg.MaxEvidence); evidenceHead indexes the oldest retained entry
	// once the ring is full. guarded by mu
	evidence []Evidence
	// evidenceHead is the ledger's oldest-entry index. guarded by mu
	evidenceHead int
	// evidenceSeq is the last issued Evidence.ID. guarded by mu
	evidenceSeq uint64
	// decodeRejectProbe, if set, reads the transport decode-reject counter
	// sampled into evidence; it runs with mu held and must be lock-free.
	// guarded by mu
	decodeRejectProbe func() uint64
	// cusumProbe, if set, reads the aggregate SYN/FIN tripwire sampled
	// into evidence; it runs with mu held and must be lock-free.
	// guarded by mu
	cusumProbe func() (value, threshold float64, alarm bool)
	// n counts consumed updates. guarded by mu
	n uint64
	// healthReads counts sketch-health reads, each of which may move the
	// tracking floor; a test pins a telemetry scrape to one. guarded by mu
	healthReads uint64

	// checks counts periodic anomaly checks; checkLatency observes the
	// wall time of one full check (query, baseline update, alerting) and
	// queryLatency that of its top-k query alone, in nanoseconds. They are
	// atomics: check records them, and a scrape reads them without taking
	// the monitor lock.
	checks                     telemetry.Counter
	checkLatency, queryLatency telemetry.Histogram

	// onAlert is immutable after New; it is invoked with mu held and must
	// not call back into the monitor.
	onAlert func(Alert)

	// loc holds the sketch configuration's hash functions; immutable after
	// New, so callers locate batches with it without taking mu.
	loc *dcs.Locator
}

// New builds a monitor. onAlert, if non-nil, is invoked synchronously for
// every raised alert.
func New(cfg Config, onAlert func(Alert)) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sk, err := tdcs.New(cfg.Sketch)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:      cfg,
		sketch:   sk,
		baseline: make(map[uint32]float64),
		basevar:  make(map[uint32]float64),
		alerting: make(map[uint32]bool),
		onAlert:  onAlert,
		loc:      sk.Base().Locator(),
	}, nil
}

// Config returns the monitor's effective configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Update consumes one flow update; it implements the stream.Sink shape.
func (m *Monitor) Update(src, dst uint32, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sketch.Update(src, dst, delta)
	m.n++
	if m.n%uint64(m.cfg.CheckInterval) == 0 {
		m.check()
	}
}

// UpdateBatch consumes a batch of pre-keyed flow updates under one lock
// acquisition, applying them through the sketch's batched kernel. The
// periodic check fires once if the batch crosses one or more CheckInterval
// boundaries — checks are rate-limiting, not per-update bookkeeping, so
// coalescing the crossings of one batch preserves the intended cadence.
func (m *Monitor) UpdateBatch(batch []dcs.KeyDelta) {
	if len(batch) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sketch.UpdateBatch(batch)
	m.consumed(len(batch))
}

// Locator returns the hash functions of the monitor's sketch configuration.
// They are immutable, so a caller may locate a batch with them before it
// takes any lock and hand the result to UpdateLocatedBatch.
func (m *Monitor) Locator() *dcs.Locator { return m.loc }

// UpdateLocatedBatch is UpdateBatch for a batch already located with
// Locator: only the apply phase runs under the monitor lock.
func (m *Monitor) UpdateLocatedBatch(lb *dcs.Located) {
	if lb.Len() == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sketch.UpdateLocatedBatch(lb)
	m.consumed(lb.Len())
}

// consumed counts n applied updates and runs the periodic check when they
// cross a CheckInterval boundary.
//
//lint:locked mu
func (m *Monitor) consumed(n int) {
	before := m.n
	m.n += uint64(n)
	if m.n/uint64(m.cfg.CheckInterval) > before/uint64(m.cfg.CheckInterval) {
		m.check()
	}
}

// check runs one tracking query and updates profiles and alerts.
//
//lint:locked mu
func (m *Monitor) check() {
	m.checks.Inc()
	start := time.Now()
	top := m.sketch.TopK(m.cfg.K)
	m.queryLatency.Observe(uint64(time.Since(start)))
	for _, e := range top {
		base := m.baseline[e.Dest]
		trigger := m.trigger(base)
		switch {
		case float64(e.F) >= trigger && !m.alerting[e.Dest]:
			m.alerting[e.Dest] = true
			a := Alert{Dest: e.Dest, Estimated: e.F, Baseline: base, AtUpdate: m.n}
			m.pushAlert(a)
			m.captureEvidence(a, trigger, top)
			if m.onAlert != nil {
				m.onAlert(a)
			}
		case float64(e.F) >= trigger:
			// Still above trigger inside an excursion: hysteresis
			// holds the alert stream to one alert per excursion.
			m.alertsSuppressed++
		case float64(e.F) < trigger/2 && m.alerting[e.Dest]:
			delete(m.alerting, e.Dest)
		}
		// The profile absorbs current activity slowly, so diurnal
		// drift follows it — but learning is frozen during an alert
		// excursion so a sustained attack is never absorbed as the
		// new normal.
		if !m.alerting[e.Dest] {
			dev := float64(e.F) - base
			m.baseline[e.Dest] = base + m.cfg.BaselineAlpha*dev
			m.basevar[e.Dest] += m.cfg.BaselineAlpha * (dev*dev - m.basevar[e.Dest])
		}
	}
	m.clearOutsideTopK(top)
	m.checkLatency.Observe(uint64(time.Since(start)))
}

// clearOutsideTopK ends the excursion of every alerting destination that
// is not in this check's top-k and whose point estimate has fallen below
// half its trigger, an estimate of 0 included. Without it a victim that
// left the top-k while alerting would stay alerting for ever, and every
// later attack on it would be suppressed as part of the old excursion.
//
//lint:locked mu
func (m *Monitor) clearOutsideTopK(top []dcs.Estimate) {
	for d := range m.alerting {
		if inTopK(top, d) {
			continue
		}
		if float64(m.sketch.Estimate(d)) < m.trigger(m.baseline[d])/2 {
			delete(m.alerting, d)
		}
	}
}

// inTopK reports whether dest is one of the top-k answer's destinations.
func inTopK(top []dcs.Estimate, dest uint32) bool {
	for _, e := range top {
		if e.Dest == dest {
			return true
		}
	}
	return false
}

// trigger is the estimate at which a destination with the given baseline
// alerts: ThresholdFactor times the baseline, but never below MinFrequency.
func (m *Monitor) trigger(base float64) float64 {
	return max(m.cfg.ThresholdFactor*base, float64(m.cfg.MinFrequency))
}

// pushAlert appends an alert to the bounded ring, evicting the oldest
// retained alert when the ring is at cfg.MaxAlerts.
//
//lint:locked mu
func (m *Monitor) pushAlert(a Alert) {
	m.alertsRaised++
	if len(m.alerts) < m.cfg.MaxAlerts {
		m.alerts = append(m.alerts, a)
		return
	}
	m.alerts[m.alertHead] = a
	m.alertHead = (m.alertHead + 1) % len(m.alerts)
	m.alertsDropped++
}

// Alerts returns a copy of the retained alerts, oldest first. At most
// Config.MaxAlerts alerts are retained; AlertStats reports how many were
// evicted before being read.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	n := copy(out, m.alerts[m.alertHead:])
	copy(out[n:], m.alerts[:m.alertHead])
	return out
}

// AlertStats reports the alert-ring bookkeeping counters.
type AlertStats struct {
	// Raised counts every alert ever raised.
	Raised uint64
	// Suppressed counts anomalous top-k observations that did not raise
	// an alert because their destination was already in an excursion.
	Suppressed uint64
	// Dropped counts alerts evicted from the full ring before being read.
	Dropped uint64
	// Retained is the number of alerts currently in the ring.
	Retained int
}

// AlertStats returns the current alert bookkeeping counters.
func (m *Monitor) AlertStats() AlertStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alertStatsLocked()
}

// alertStatsLocked is AlertStats for callers holding the monitor lock.
//
//lint:locked mu
func (m *Monitor) alertStatsLocked() AlertStats {
	return AlertStats{
		Raised:     m.alertsRaised,
		Suppressed: m.alertsSuppressed,
		Dropped:    m.alertsDropped,
		Retained:   len(m.alerts),
	}
}

// Alerting reports whether dest is currently in an alert excursion.
func (m *Monitor) Alerting(dest uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alerting[dest]
}

// TopK exposes the current tracking answer. The result is a private copy:
// the sketch's answer is scratch valid only until the next query, and the
// monitor's callers read replies after m.mu is released.
func (m *Monitor) TopK(k int) []dcs.Estimate {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]dcs.Estimate(nil), m.sketch.TopK(k)...)
}

// Updates returns the number of consumed updates.
func (m *Monitor) Updates() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// MergeInto folds the monitor's sketch into dst while holding the monitor
// lock, so collectors observe a quiescent edge sketch. dst must share the
// monitor's sketch Config, seed included.
func (m *Monitor) MergeInto(dst *tdcs.Sketch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return dst.Merge(m.sketch) //lint:seedok collector contract: NewCollector requires the edge monitors' config; Merge rejects mismatches at runtime
}

// Sketch exposes the underlying tracking sketch, e.g. for serialization at
// an edge exporter. The caller must ensure no concurrent Update runs while
// it uses the returned sketch (prefer MergeInto for collector folds).
func (m *Monitor) Sketch() *tdcs.Sketch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sketch
}

// SketchHealth is a consistent snapshot of the sketch-health telemetry:
// the decode-outcome counters plus the tracking-layer occupancy signals.
type SketchHealth struct {
	// Query holds the decode-outcome counters and live sample shape.
	Query dcs.QueryStats
	// Rebuilds counts tracking-state reconstructions.
	Rebuilds uint64
	// TrackingFloor is the lowest level that carries tracking state;
	// FloorRaises and FloorLowers count its moves (see package tdcs).
	TrackingFloor int
	FloorRaises   uint64
	FloorLowers   uint64
	// LevelsNonEmpty counts first-level buckets with at least one
	// occupied second-level bucket.
	LevelsNonEmpty int
	// LevelsAllocated counts first-level buckets whose counters are
	// allocated; times the slab size it is the sketch's counter memory.
	LevelsAllocated int
}

// SketchHealth reads the sketch-health snapshot under the monitor lock.
func (m *Monitor) SketchHealth() SketchHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sketchHealthLocked()
}

// sketchHealthLocked builds the health snapshot for callers already holding
// the monitor lock (SketchHealth, evidence capture inside check).
//
//lint:locked mu
func (m *Monitor) sketchHealthLocked() SketchHealth {
	m.healthReads++
	return SketchHealth{
		Query:           m.sketch.QueryStats(),
		Rebuilds:        m.sketch.Rebuilds(),
		TrackingFloor:   m.sketch.TrackingFloor(),
		FloorRaises:     m.sketch.FloorRaises(),
		FloorLowers:     m.sketch.FloorLowers(),
		LevelsNonEmpty:  m.sketch.Base().NonEmptyLevels(),
		LevelsAllocated: m.sketch.Base().LevelsAllocated(),
	}
}

// scrapeState is what one telemetry scrape reads of the monitor, under one
// hold of the monitor lock: the probes below all read it.
type scrapeState struct {
	updates uint64
	alerts  AlertStats
	health  SketchHealth
}

// readScrape reads the scrape state under the monitor lock.
func (m *Monitor) readScrape() scrapeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return scrapeState{updates: m.n, alerts: m.alertStatsLocked(), health: m.sketchHealthLocked()}
}

// RegisterTelemetry registers the monitor's check counter and its check and
// query latency histograms on reg, with its scrape-time probes: the alert
// lifecycle counters and the sketch-health series — decode outcomes,
// distinct-sample shape, level occupancy, rebuilds. The probes share one
// read per scrape: a scrape hook takes the monitor lock once, reads the
// update count, AlertStats and SketchHealth, and every probe reads that.
// The lock is the one the server's ingest holds for every frame, and a
// health read may move the tracking floor. Call at most once per monitor
// and registry pair.
func (m *Monitor) RegisterTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("dcsketch_monitor_checks_total",
		"Periodic anomaly checks run.",
		m.checks.Load)
	reg.Histogram("dcsketch_monitor_check_latency_ns",
		"Wall time of one anomaly check in nanoseconds.",
		&m.checkLatency)
	reg.Histogram("dcsketch_monitor_query_latency_ns",
		"Wall time of the top-k sketch query in nanoseconds.",
		&m.queryLatency)

	cur := telemetry.Scraped(reg, m.readScrape)

	reg.CounterFunc("dcsketch_monitor_updates_total",
		"Flow updates consumed by the monitor.",
		func() uint64 { return cur().updates })
	reg.CounterFunc("dcsketch_monitor_alerts_raised_total",
		"Alerts raised into the alert ring.",
		func() uint64 { return cur().alerts.Raised })
	reg.CounterFunc("dcsketch_monitor_alerts_suppressed_total",
		"Anomalous observations suppressed by hysteresis.",
		func() uint64 { return cur().alerts.Suppressed })
	reg.CounterFunc("dcsketch_monitor_alerts_dropped_total",
		"Alerts evicted from the full alert ring before being read.",
		func() uint64 { return cur().alerts.Dropped })
	reg.GaugeFunc("dcsketch_monitor_alerts_retained",
		"Alerts currently retained in the ring.",
		func() int64 { return int64(cur().alerts.Retained) })

	reg.CounterFunc("dcsketch_sketch_queries_total",
		"Sketch queries (sampling passes plus tracked top-k answers).",
		func() uint64 { return cur().health.Query.Queries })
	reg.CounterFunc("dcsketch_sketch_decode_singletons_total",
		"Bucket decodes that found a verified singleton pair (queries, floor lowerings, rebuilds, and updates at or above the tracking floor).",
		func() uint64 { return cur().health.Query.DecodeSingletons })
	reg.CounterFunc("dcsketch_sketch_decode_failures_total",
		"Decodes of non-empty buckets that failed (collisions, residue, and saturated buckets whose total reached 2^31), counted on the same paths as the singleton decodes.",
		func() uint64 { return cur().health.Query.DecodeFailures })
	reg.CounterFunc("dcsketch_sketch_checksum_rejects_total",
		"Singleton decodes rejected by the fingerprint checksum.",
		func() uint64 { return cur().health.Query.ChecksumRejects })
	reg.CounterFunc("dcsketch_sketch_structural_rejects_total",
		"Singleton decodes rejected by the level/bucket re-hash check.",
		func() uint64 { return cur().health.Query.StructuralRejects })
	reg.CounterFunc("dcsketch_sketch_rebuilds_total",
		"Tracking-state reconstructions (merges, deserializations).",
		func() uint64 { return cur().health.Rebuilds })
	reg.GaugeFunc("dcsketch_sketch_tracking_floor",
		"Lowest first-level bucket that carries tracking state; updates below it are plain counter adds.",
		func() int64 { return int64(cur().health.TrackingFloor) })
	reg.CounterFunc("dcsketch_sketch_tracking_floor_raises_total",
		"Times the tracking floor rose, dropping the tracking state of the levels below it.",
		func() uint64 { return cur().health.FloorRaises })
	reg.CounterFunc("dcsketch_sketch_tracking_floor_lowers_total",
		"Queries that lowered the tracking floor, rebuilding levels from the counters.",
		func() uint64 { return cur().health.FloorLowers })
	reg.GaugeFunc("dcsketch_sketch_sample_level",
		"First-level bucket the tracked top-k currently answers from.",
		func() int64 { return int64(cur().health.Query.SampleLevel) })
	reg.GaugeFunc("dcsketch_sketch_sample_size",
		"Distinct-sample size at the current sample level.",
		func() int64 { return int64(cur().health.Query.SampleSize) })
	reg.GaugeFunc("dcsketch_sketch_levels_nonempty",
		"First-level buckets with at least one occupied second-level bucket.",
		func() int64 { return int64(cur().health.LevelsNonEmpty) })
	reg.GaugeFunc("dcsketch_sketch_levels_allocated",
		"First-level buckets whose counters are allocated (each holds r*s count signatures).",
		func() int64 { return int64(cur().health.LevelsAllocated) })
}

// Collector merges the sketches of several edge monitors into a global view
// of the network (Fig. 1: streams from many network elements feed one DDoS
// MONITOR; here each element pre-aggregates locally and ships its sketch).
type Collector struct {
	sketch *tdcs.Sketch
}

// NewCollector builds a collector; cfg must equal the edge monitors' sketch
// config (including seed) for merging to be possible.
func NewCollector(cfg dcs.Config) (*Collector, error) {
	sk, err := tdcs.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Collector{sketch: sk}, nil
}

// Gather resets the collector and merges the given monitors' sketches. Each
// monitor is folded under its own lock, so Gather is safe to run while the
// edges keep consuming updates (the combined view is per-edge consistent).
func (c *Collector) Gather(monitors ...*Monitor) error {
	c.sketch.Reset()
	for i, m := range monitors {
		if err := m.MergeInto(c.sketch); err != nil {
			return fmt.Errorf("monitor: merge sketch %d: %w", i, err)
		}
	}
	return nil
}

// TopK returns the network-wide top-k after Gather.
func (c *Collector) TopK(k int) []dcs.Estimate { return c.sketch.TopK(k) }

// Sketch exposes the merged sketch.
func (c *Collector) Sketch() *tdcs.Sketch { return c.sketch }
