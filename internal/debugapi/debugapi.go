// Package debugapi defines the JSON shapes and HTTP handlers of the daemon's
// debug surface that go beyond raw telemetry: the alert-evidence ledger
// (/debug/alerts, /debug/alerts/{id}). The shapes live here — not in the
// server — so offline readers (sketchtool explain) can decode a saved
// response without importing the serving stack.
package debugapi

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"dcsketch/internal/monitor"
	"dcsketch/internal/trace"
)

// TopKEntry is one tracked destination inside an evidence snapshot.
type TopKEntry struct {
	Victim    string `json:"victim"`
	Dest      uint32 `json:"dest"`
	Estimated int64  `json:"estimated"`
}

// EvidenceRecord is the JSON form of one alert-evidence ledger entry: every
// input of the alert decision, snapshotted at onset.
type EvidenceRecord struct {
	ID          uint64  `json:"id"`
	Victim      string  `json:"victim"`
	Dest        uint32  `json:"dest"`
	Estimated   int64   `json:"estimated"`
	Baseline    float64 `json:"baseline"`
	BaselineVar float64 `json:"baseline_var"`
	Trigger     float64 `json:"trigger"`
	AtUpdate    uint64  `json:"at_update"`

	TopK []TopKEntry `json:"topk"`

	// Sketch health at onset: decode outcomes and sample shape, so a
	// reader can judge how trustworthy the estimate was.
	SketchQueries     uint64 `json:"sketch_queries"`
	DecodeSingletons  uint64 `json:"decode_singletons"`
	DecodeFailures    uint64 `json:"decode_failures"`
	ChecksumRejects   uint64 `json:"checksum_rejects"`
	StructuralRejects uint64 `json:"structural_rejects"`
	SampleLevel       int    `json:"sample_level"`
	SampleSize        int    `json:"sample_size"`
	LevelsNonEmpty    int    `json:"levels_nonempty"`
	Rebuilds          uint64 `json:"rebuilds"`

	CUSUMValue     float64 `json:"cusum_value"`
	CUSUMThreshold float64 `json:"cusum_threshold"`
	CUSUMAlarm     bool    `json:"cusum_alarm"`
	DecodeRejects  uint64  `json:"decode_rejects"`
}

// NewEvidenceRecord converts a ledger entry to its JSON form.
func NewEvidenceRecord(ev monitor.Evidence) EvidenceRecord {
	rec := EvidenceRecord{
		ID:          ev.ID,
		Victim:      trace.FormatIPv4(ev.Alert.Dest),
		Dest:        ev.Alert.Dest,
		Estimated:   ev.Alert.Estimated,
		Baseline:    ev.Alert.Baseline,
		BaselineVar: ev.BaselineVar,
		Trigger:     ev.Trigger,
		AtUpdate:    ev.Alert.AtUpdate,

		SketchQueries:     ev.Health.Query.Queries,
		DecodeSingletons:  ev.Health.Query.DecodeSingletons,
		DecodeFailures:    ev.Health.Query.DecodeFailures,
		ChecksumRejects:   ev.Health.Query.ChecksumRejects,
		StructuralRejects: ev.Health.Query.StructuralRejects,
		SampleLevel:       ev.Health.Query.SampleLevel,
		SampleSize:        ev.Health.Query.SampleSize,
		LevelsNonEmpty:    ev.Health.LevelsNonEmpty,
		Rebuilds:          ev.Health.Rebuilds,

		CUSUMValue:     ev.CUSUMValue,
		CUSUMThreshold: ev.CUSUMThreshold,
		CUSUMAlarm:     ev.CUSUMAlarm,
		DecodeRejects:  ev.DecodeRejects,
	}
	rec.TopK = make([]TopKEntry, len(ev.TopK))
	for i, e := range ev.TopK {
		rec.TopK[i] = TopKEntry{
			Victim:    trace.FormatIPv4(e.Dest),
			Dest:      e.Dest,
			Estimated: e.F,
		}
	}
	return rec
}

// AlertsHandler serves the alert-evidence ledger as JSON. Mounted at both
// /debug/alerts (the whole ledger, oldest first) and /debug/alerts/ (a
// single entry addressed as /debug/alerts/{id}); an unknown or malformed id
// is a 404.
func AlertsHandler(mon *monitor.Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/debug/alerts")
		rest = strings.TrimPrefix(rest, "/")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if rest == "" {
			evs := mon.Evidence()
			out := make([]EvidenceRecord, len(evs))
			for i, ev := range evs {
				out[i] = NewEvidenceRecord(ev)
			}
			_ = enc.Encode(out)
			return
		}
		id, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			http.Error(w, "bad evidence id", http.StatusNotFound)
			return
		}
		ev, ok := mon.EvidenceByID(id)
		if !ok {
			http.Error(w, "no such evidence entry (never raised, or evicted)", http.StatusNotFound)
			return
		}
		_ = enc.Encode(NewEvidenceRecord(ev))
	})
}
