// Alert-evidence ledger: a bounded ring of decision-input snapshots captured
// at alert onset, so an operator can answer "why did this alert fire?" after
// the fact — the sketch state, baselines and tripwire statistics that fed the
// decision are volatile and would otherwise be gone by the time anyone looks.
//
// Evidence capture happens inside check() with m.mu held (in the daemons,
// also under the server's ingest lock). Onsets are not rare: hysteresis holds
// each destination to one alert per excursion, but churn alone brings fresh
// destinations. A destination with one sampled source is estimated at
// 2^level, which reaches the daemons' MinFrequency of 64 from sample level 6
// (about 10k live pairs at 3×128). With the daemons' defaults, 20k live
// churn pairs raise about 1.5 onsets per 4096-update check, and 10k raise
// about 2.5. Capture therefore stays O(levels) apart from the top-k copy:
// the sketch-health read counts non-empty levels from the occupancy index
// instead of scanning the counters. Unlike the tracelog record path it is
// allowed to allocate the top-k copy it retains.
package monitor

import "dcsketch/internal/dcs"

// DefaultMaxEvidence bounds the evidence ring when Config.MaxEvidence is 0.
// Evidence entries are much heavier than Alerts (they carry a top-k copy and
// a health snapshot), so the default retention is far smaller than MaxAlerts.
const DefaultMaxEvidence = 64

// Evidence snapshots every input of one alert decision at the moment the
// alert was raised.
type Evidence struct {
	// ID identifies the entry: 1 for the first alert ever raised by this
	// monitor, increasing by one per onset. IDs are stable across ring
	// eviction, so /debug/alerts/{id} references stay meaningful.
	ID uint64
	// Alert is the raised alert (victim, estimate, baseline, position).
	Alert Alert
	// Trigger is the effective alarm level the estimate was compared
	// against: max(ThresholdFactor x baseline, MinFrequency).
	Trigger float64
	// BaselineVar is the EWMA variance of the victim's estimated frequency
	// around its baseline profile — a spread measure that tells a noisy
	// baseline from a quiet one when judging the excursion.
	BaselineVar float64
	// TopK is a private copy of the tracked top-k answer the check ran on.
	TopK []dcs.Estimate
	// Health is the sketch-health snapshot at onset (decode outcomes,
	// sample shape, occupancy, rebuilds).
	Health SketchHealth
	// CUSUMValue, CUSUMThreshold and CUSUMAlarm snapshot the aggregate
	// SYN/FIN change-point tripwire, when one is attached via
	// SetCUSUMProbe; all zero otherwise.
	CUSUMValue     float64
	CUSUMThreshold float64
	CUSUMAlarm     bool
	// DecodeRejects snapshots the transport-layer reject counter attached
	// via SetDecodeRejectProbe (frames the server refused before they could
	// reach the sketch); 0 when no probe is attached.
	DecodeRejects uint64
}

// SetDecodeRejectProbe attaches a reader for the transport decode-reject
// counter sampled into each Evidence entry. The probe is invoked with m.mu
// held, so it must be lock-free (e.g. an atomic counter load) — taking any
// lock ordered after the monitor's would invert the module's lock order.
func (m *Monitor) SetDecodeRejectProbe(fn func() uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decodeRejectProbe = fn
}

// SetCUSUMProbe attaches a reader for the aggregate SYN/FIN tripwire sampled
// into each Evidence entry as (statistic, threshold, in-alarm). Like the
// decode-reject probe it runs with m.mu held and must be lock-free.
func (m *Monitor) SetCUSUMProbe(fn func() (value, threshold float64, alarm bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cusumProbe = fn
}

// captureEvidence snapshots the decision inputs of a just-raised alert into
// the bounded evidence ring, evicting the oldest entry when full.
//
//lint:locked mu
func (m *Monitor) captureEvidence(a Alert, trigger float64, top []dcs.Estimate) {
	m.evidenceSeq++
	ev := Evidence{
		ID:          m.evidenceSeq,
		Alert:       a,
		Trigger:     trigger,
		BaselineVar: m.basevar[a.Dest],
		TopK:        append(make([]dcs.Estimate, 0, len(top)), top...),
		Health:      m.sketchHealthLocked(),
	}
	if m.cusumProbe != nil {
		ev.CUSUMValue, ev.CUSUMThreshold, ev.CUSUMAlarm = m.cusumProbe()
	}
	if m.decodeRejectProbe != nil {
		ev.DecodeRejects = m.decodeRejectProbe()
	}
	if len(m.evidence) < m.cfg.MaxEvidence {
		m.evidence = append(m.evidence, ev)
		return
	}
	m.evidence[m.evidenceHead] = ev
	m.evidenceHead = (m.evidenceHead + 1) % len(m.evidence)
}

// Evidence returns a copy of the retained evidence entries, oldest first.
// The TopK slices are shared with the ledger but immutable after capture.
func (m *Monitor) Evidence() []Evidence {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Evidence, len(m.evidence))
	n := copy(out, m.evidence[m.evidenceHead:])
	copy(out[n:], m.evidence[:m.evidenceHead])
	return out
}

// EvidenceByID returns the ledger entry with the given ID, if it is still
// retained (false means it never existed or was evicted).
func (m *Monitor) EvidenceByID(id uint64) (Evidence, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.evidence {
		if m.evidence[i].ID == id {
			return m.evidence[i], true
		}
	}
	return Evidence{}, false
}
