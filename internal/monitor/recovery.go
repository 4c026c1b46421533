// Crash-safe snapshot accessors: the monitor's detection state — sketch,
// EWMA baseline/variance profiles, alert hysteresis, update count — can be
// exported into internal/snapshot sections and restored on a fresh monitor
// at boot. The alert and evidence rings are deliberately NOT serialized:
// they are an operator-facing log of a dead process, not state the restarted
// detector needs to be correct, and replaying them would double-report.
package monitor

import (
	"fmt"
	"sort"

	"dcsketch/internal/snapshot"
	"dcsketch/internal/tdcs"
)

// SnapshotSketch serializes the monitor's sketch counters under the monitor
// lock.
func (m *Monitor) SnapshotSketch() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sketch.MarshalBinary()
}

// SnapshotProfile captures the monitor's non-sketch detection state. The
// profile list is sorted by destination so equal states produce identical
// snapshots (byte-stable files diff cleanly across restarts).
func (m *Monitor) SnapshotProfile() snapshot.MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := snapshot.MonitorState{Updates: m.n}
	if len(m.baseline) > 0 {
		st.Profiles = make([]snapshot.DestProfile, 0, len(m.baseline))
		for dest, mean := range m.baseline {
			st.Profiles = append(st.Profiles, snapshot.DestProfile{
				Dest: dest, Mean: mean, Var: m.basevar[dest],
			})
		}
		sort.Slice(st.Profiles, func(i, j int) bool { return st.Profiles[i].Dest < st.Profiles[j].Dest })
	}
	if len(m.alerting) > 0 {
		st.Alerting = make([]uint32, 0, len(m.alerting))
		for dest := range m.alerting {
			st.Alerting = append(st.Alerting, dest)
		}
		sort.Slice(st.Alerting, func(i, j int) bool { return st.Alerting[i] < st.Alerting[j] })
	}
	return st
}

// RestoreSketch replaces the monitor's sketch with a previously serialized
// one. The encoded sketch must carry the monitor's exact configuration
// (dimensions and seed): restoring a snapshot from a differently configured
// collector would silently break every merge that follows, so it is
// rejected here instead.
func (m *Monitor) RestoreSketch(data []byte) error {
	sk, err := tdcs.UnmarshalBinary(data)
	if err != nil {
		return fmt.Errorf("monitor: restore sketch: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if got, want := sk.Base().Config(), m.sketch.Base().Config(); got != want {
		return fmt.Errorf("monitor: restore sketch config %+v does not match monitor config %+v", got, want)
	}
	m.sketch = sk
	return nil
}

// RestoreProfile replaces the monitor's EWMA profiles, hysteresis set, and
// update count with a previously captured state. Call before the monitor
// starts consuming updates; alert/evidence rings start empty.
func (m *Monitor) RestoreProfile(st snapshot.MonitorState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n = st.Updates
	m.baseline = make(map[uint32]float64, len(st.Profiles))
	m.basevar = make(map[uint32]float64, len(st.Profiles))
	for _, p := range st.Profiles {
		m.baseline[p.Dest] = p.Mean
		m.basevar[p.Dest] = p.Var
	}
	m.alerting = make(map[uint32]bool, len(st.Alerting))
	for _, dest := range st.Alerting {
		m.alerting[dest] = true
	}
}
