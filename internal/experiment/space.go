package experiment

import (
	"fmt"
	"math"

	"dcsketch/internal/dcs"
	"dcsketch/internal/exact"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/workload"
)

// SpaceParams configures the §6.1 storage comparison: Distinct-Count Sketch
// synopses vs the naive per-pair scheme, at several U.
type SpaceParams struct {
	// AnalyticUs lists the pair counts for which the paper-model sizes
	// are computed (paper: 8·10^6 and 10^9).
	AnalyticUs []int64
	// MeasuredU is a laptop-scale U for which the actual Go footprints
	// are measured by generating a stream (default 200_000).
	MeasuredU int64
	// Tables and Buckets are the sketch's r and s.
	Tables, Buckets int
	// Seed decorrelates the measured run.
	Seed uint64
}

func (p SpaceParams) withDefaults() SpaceParams {
	if len(p.AnalyticUs) == 0 {
		p.AnalyticUs = []int64{8_000_000, 1_000_000_000}
	}
	if p.MeasuredU == 0 {
		p.MeasuredU = 200_000
	}
	if p.Tables == 0 {
		p.Tables = dcs.DefaultTables
	}
	if p.Buckets == 0 {
		p.Buckets = dcs.DefaultBuckets
	}
	return p
}

// SpaceRow is one line of the storage comparison.
type SpaceRow struct {
	// U is the distinct pair count.
	U int64
	// Analytic reports whether the row is the paper's closed-form model
	// (true) or a measurement of this implementation (false).
	Analytic bool
	// BasicBytes and TrackingBytes are the synopsis sizes; for measured
	// rows BasicBytes is the serialized (occupancy-reflecting) size and
	// TrackingBytes the resident tracking sketch.
	BasicBytes, TrackingBytes int64
	// RawBytes is the resident counter array (measured rows only): one
	// slab of r·s signatures for each level the stream reached.
	RawBytes int64
	// BruteForceBytes is the naive per-pair scheme (12 bytes per pair,
	// the paper's accounting).
	BruteForceBytes int64
}

// paperModelBytes is §6.1's arithmetic: non-empty levels ≈ log2(U), each
// holding r tables of s buckets of (2·log m + 1) = 65 4-byte counters.
func paperModelBytes(u int64, r, s int) int64 {
	levels := int64(math.Ceil(math.Log2(float64(u))))
	if levels < 1 {
		levels = 1
	}
	return levels * int64(r) * int64(s) * 65 * 4
}

// Space runs the storage comparison.
func Space(p SpaceParams) ([]SpaceRow, error) {
	p = p.withDefaults()
	out := make([]SpaceRow, 0, len(p.AnalyticUs)+1)
	for _, u := range p.AnalyticUs {
		basic := paperModelBytes(u, p.Tables, p.Buckets)
		out = append(out, SpaceRow{
			U:               u,
			Analytic:        true,
			BasicBytes:      basic,
			TrackingBytes:   2 * basic, // §6.1: "a factor of about two"
			BruteForceBytes: u * 12,
		})
	}

	// Measured row: drive a real stream and weigh the structures.
	w, err := workload.Generate(workload.Config{
		DistinctPairs: p.MeasuredU,
		Destinations:  maxInt(int(p.MeasuredU/160), 1),
		Skew:          1.0,
		Seed:          p.Seed + 3,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: space workload: %w", err)
	}
	tracking, err := tdcs.New(dcs.Config{Tables: p.Tables, Buckets: p.Buckets, Seed: p.Seed + 4})
	if err != nil {
		return nil, fmt.Errorf("experiment: space sketch: %w", err)
	}
	naive := exact.New()
	for _, u := range w.Updates() {
		tracking.Update(u.Src, u.Dst, int64(u.Delta))
		naive.Update(u.Src, u.Dst, int64(u.Delta))
	}
	encoded, err := tracking.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("experiment: space encode: %w", err)
	}
	out = append(out, SpaceRow{
		U:               p.MeasuredU,
		Analytic:        false,
		BasicBytes:      int64(len(encoded)),
		TrackingBytes:   int64(tracking.SizeBytes()),
		RawBytes:        int64(tracking.Base().SizeBytes()),
		BruteForceBytes: int64(naive.PaperSizeBytes()),
	})
	return out, nil
}

// SpaceTable renders the comparison.
func SpaceTable(rows []SpaceRow) *Table {
	t := &Table{
		Title: "Space: Distinct-Count Sketch vs brute force (paper §6.1)",
		Headers: []string{
			"U", "kind", "basic_bytes", "tracking_bytes", "raw_bytes", "brute_force_bytes", "gain",
		},
	}
	for _, r := range rows {
		kind := "measured"
		if r.Analytic {
			kind = "paper-model"
		}
		gain := float64(r.BruteForceBytes) / float64(r.TrackingBytes)
		t.AddRow(r.U, kind, r.BasicBytes, r.TrackingBytes, r.RawBytes, r.BruteForceBytes, gain)
	}
	return t
}
