package dcsketch

// This file holds one benchmark per table/figure of the paper's evaluation
// (§6), plus ablation benches for the design choices DESIGN.md calls out.
// The experiment harness in internal/experiment produces the actual
// figure-shaped data tables (run cmd/experiments); these benches expose the
// same code paths to `go test -bench` so regressions in any reproduced
// result are visible in standard tooling.
//
//	BenchmarkFig8aRecall / BenchmarkFig8bError    — Fig. 8(a)/(b) accuracy sweep
//	BenchmarkFig9QueryMix/*                       — Fig. 9 update+query mixes
//	BenchmarkSpaceFootprint                       — §6.1 space comparison
//	BenchmarkUpdate*/BenchmarkQuery*              — Table 2 cost asymmetics
//	BenchmarkUpdateTrackingChurn                  — tracking batch path under daemon churn
//	BenchmarkScenarioDiscrimination               — §1 robustness scenario
//	BenchmarkAlertOnsetHealth                     — sketch-health read at alert onset
//	Benchmark*Ablation*                           — design-choice ablations

import (
	"fmt"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/experiment"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/pipeline"
	"dcsketch/internal/stream"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/window"
	"dcsketch/internal/workload"
)

// benchWorkload memoizes generated workloads across benchmark iterations.
var benchWorkloads = map[string]*workload.Workload{}

func benchWorkload(b *testing.B, u int64, d int, z float64) *workload.Workload {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%v", u, d, z)
	if w, ok := benchWorkloads[key]; ok {
		return w
	}
	w, err := workload.Generate(workload.Config{
		DistinctPairs: u, Destinations: d, Skew: z, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloads[key] = w
	return w
}

// BenchmarkFig8aRecall regenerates one Fig. 8(a) accuracy point per
// iteration (z = 1.5, k <= 15, 1 seed) via the experiment harness.
func BenchmarkFig8aRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.Fig8(experiment.Fig8Params{
			Scale: 0.005, Skews: []float64{1.5}, Ks: []int{5, 10, 15}, Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 3 {
			b.Fatalf("got %d points", len(points))
		}
	}
}

// BenchmarkFig8bError regenerates one Fig. 8(b) relative-error point per
// iteration at extreme skew.
func BenchmarkFig8bError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.Fig8(experiment.Fig8Params{
			Scale: 0.005, Skews: []float64{2.5}, Ks: []int{5, 10}, Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 2 {
			b.Fatalf("got %d points", len(points))
		}
	}
}

// BenchmarkFig9QueryMix measures per-update cost for both sketch variants
// under the paper's query frequencies (Fig. 9): the Basic sketch degrades
// as queries become frequent, the Tracking sketch does not.
func BenchmarkFig9QueryMix(b *testing.B) {
	w := benchWorkload(b, 50_000, 320, 1.0)
	ups := w.Updates()
	for _, qf := range []float64{0, 0.0025} {
		interval := 0
		if qf > 0 {
			interval = int(1 / qf)
		}
		b.Run(fmt.Sprintf("basic/qf=%v", qf), func(b *testing.B) {
			sk, err := dcs.New(dcs.Config{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				sk.Update(u.Src, u.Dst, int64(u.Delta))
				if interval > 0 && (i+1)%interval == 0 {
					sk.TopK(1)
				}
			}
		})
		b.Run(fmt.Sprintf("tracking/qf=%v", qf), func(b *testing.B) {
			sk, err := tdcs.New(dcs.Config{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				sk.Update(u.Src, u.Dst, int64(u.Delta))
				if interval > 0 && (i+1)%interval == 0 {
					sk.TopK(1)
				}
			}
		})
	}
}

// BenchmarkSpaceFootprint regenerates the §6.1 space table (analytic rows
// plus a measured run).
func BenchmarkSpaceFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Space(experiment.SpaceParams{MeasuredU: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkUpdateBasic / BenchmarkUpdateTracking are Table 2's update-cost
// row: Basic O(r·log m) vs Tracking O(r·log² m) per flow update.
func BenchmarkUpdateBasic(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.0)
	ups := w.Updates()
	sk, err := dcs.New(dcs.Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		sk.Update(u.Src, u.Dst, int64(u.Delta))
	}
}

func BenchmarkUpdateTracking(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.0)
	ups := w.Updates()
	sk, err := tdcs.New(dcs.Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		sk.Update(u.Src, u.Dst, int64(u.Delta))
	}
}

// BenchmarkUpdateTrackingChurn times the tracking batch path on the daemons'
// workload: 512-record tdcs.UpdateBatch calls at the daemons' config (3×128,
// seed 1) over a delete-heavy churn in which each step inserts a fresh pair
// and deletes the pair inserted 20k steps earlier. The 20k live pairs are
// inserted untimed. One op is one record.
func BenchmarkUpdateTrackingChurn(b *testing.B) {
	const live, frame = 20_000, 512
	// The churn repeats in cycles of cycleSteps steps; a cycle is longer
	// than a pair's lifetime, so every pair is deleted before the cycle
	// inserts it again.
	const cycleSteps = 160 * frame / 2
	pair := func(n uint64) uint64 {
		return hashing.PairKey(uint32(hashing.Mix64(2*n+1)), 0x0A000000|uint32(hashing.Mix64(2*n+2))&0x00FFFFFF)
	}
	cycle := make([]dcs.KeyDelta, 0, 2*cycleSteps)
	for t := uint64(0); t < cycleSteps; t++ {
		cycle = append(cycle,
			dcs.KeyDelta{Key: pair((live + t) % cycleSteps), Delta: 1},
			dcs.KeyDelta{Key: pair(t), Delta: -1})
	}
	sk, err := tdcs.New(dcs.Config{Tables: 3, Buckets: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for n := uint64(0); n < live; n++ {
		sk.UpdateKey(pair(n), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done, off := 0, 0; done < b.N; off = (off + frame) % len(cycle) {
		n := min(frame, b.N-done)
		sk.UpdateBatch(cycle[off : off+n])
		done += n
	}
}

// BenchmarkQueryBasic / BenchmarkQueryTracking are Table 2's query-cost row:
// Basic O(r·s·log² m) vs Tracking O(k·log m) per top-k query.
func BenchmarkQueryBasic(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.0)
	sk, err := dcs.New(dcs.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range w.Updates() {
		sk.Update(u.Src, u.Dst, int64(u.Delta))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.TopK(10)
	}
}

func BenchmarkQueryTracking(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.0)
	sk, err := tdcs.New(dcs.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range w.Updates() {
		sk.Update(u.Src, u.Dst, int64(u.Delta))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.TopK(10)
	}
}

// BenchmarkScenarioDiscrimination runs the §1 robustness scenario: SYN flood
// vs flash crowd through distinct-count, volume, and monitor pipelines.
func BenchmarkScenarioDiscrimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Scenario(experiment.ScenarioParams{
			Zombies: 500, CrowdClients: 1000, BackgroundConnections: 2000, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.DistinctTop1 != experiment.ScenarioVictim {
			b.Fatal("scenario lost the victim")
		}
	}
}

// BenchmarkFingerprintAblation measures the update-path cost of the
// fingerprint checksum counter (design-choice ablation).
func BenchmarkFingerprintAblation(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.0)
	ups := w.Updates()
	for _, fp := range []bool{true, false} {
		b.Run(fmt.Sprintf("fingerprint=%v", fp), func(b *testing.B) {
			sk, err := dcs.New(dcs.Config{Seed: 13, DisableFingerprint: !fp})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				sk.Update(u.Src, u.Dst, int64(u.Delta))
			}
		})
	}
}

// BenchmarkSampleTargetAblation measures query cost under the paper's
// stopping constant vs the implementation default.
func BenchmarkSampleTargetAblation(b *testing.B) {
	w := benchWorkload(b, 100_000, 640, 1.5)
	for _, tc := range []struct {
		name   string
		target int
	}{
		{"paper", dcs.PaperSampleTarget(dcs.DefaultBuckets, dcs.DefaultEpsilon)},
		{"default", dcs.DefaultBuckets},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sk, err := dcs.New(dcs.Config{Seed: 17, SampleTarget: tc.target})
			if err != nil {
				b.Fatal(err)
			}
			for _, u := range w.Updates() {
				sk.Update(u.Src, u.Dst, int64(u.Delta))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.TopK(10)
			}
		})
	}
}

// BenchmarkMonitorPipeline measures the full detection path: flow update ->
// tracking sketch -> periodic baseline check.
func BenchmarkMonitorPipeline(b *testing.B) {
	attack, err := (stream.SYNFlood{Victim: 443, Zombies: 50_000, Seed: 19}).Updates()
	if err != nil {
		b.Fatal(err)
	}
	mon, err := NewMonitor(MonitorConfig{SketchOptions: []Option{WithSeed(21)}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := attack[i%len(attack)]
		mon.Update(u.Src, u.Dst, int64(u.Delta))
	}
}

// BenchmarkAlertOnsetHealth times the sketch-health read every alert onset
// makes under the monitor lock (and, in the daemons, under the server's
// ingest lock): a monitor built with the daemons' defaults (3×128, seed 1,
// K 10, CheckInterval 4096, MinFrequency 64) holding 20k live churn pairs.
// Each churn step inserts a fresh pair and, once 20k are live, deletes the
// oldest, so the sketch carries deletes as well as inserts.
func BenchmarkAlertOnsetHealth(b *testing.B) {
	mon, err := monitor.New(monitor.Config{
		Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
		K:             10,
		CheckInterval: 4096,
		MinFrequency:  64,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const live = 20_000
	pair := func(i uint64) (src, dst uint32) {
		return uint32(hashing.Mix64(2*i + 1)), 0x0A000000 | uint32(hashing.Mix64(2*i+2))&0x00FFFFFF
	}
	for i := uint64(0); i < 2*live; i++ {
		src, dst := pair(i)
		mon.Update(src, dst, 1)
		if i >= live {
			src, dst = pair(i - live)
			mon.Update(src, dst, -1)
		}
	}
	if h := mon.SketchHealth(); h.LevelsNonEmpty == 0 {
		b.Fatal("churn left every level empty")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHealth = mon.SketchHealth()
	}
}

// benchHealth keeps the benchmarked health read observable.
var benchHealth monitor.SketchHealth

// BenchmarkMergeSketches measures collector-side sketch merging.
func BenchmarkMergeSketches(b *testing.B) {
	mk := func() *dcs.Sketch {
		sk, err := dcs.New(dcs.Config{Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		w := benchWorkload(b, 20_000, 128, 1.0)
		for _, u := range w.Updates() {
			sk.Update(u.Src, u.Dst, int64(u.Delta))
		}
		return sk
	}
	dst, src := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdQuery regenerates the footnote-3 threshold-tracking
// experiment point (one τ sweep per iteration).
func BenchmarkThresholdQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.Threshold(experiment.ThresholdParams{Scale: 0.005, Seeds: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkWindowRotate measures the cost of retiring an epoch from a
// windowed tracker (a counter subtraction plus a reset).
func BenchmarkWindowRotate(b *testing.B) {
	w, err := window.New(dcs.Config{Seed: 31}, 4)
	if err != nil {
		b.Fatal(err)
	}
	ups := benchWorkload(b, 20_000, 128, 1.0).Updates()
	for _, u := range ups {
		w.Update(u.Src, u.Dst, int64(u.Delta))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Rotate(); err != nil {
			b.Fatal(err)
		}
		// Keep the window non-trivially loaded between rotations.
		u := ups[i%len(ups)]
		w.Update(u.Src, u.Dst, int64(u.Delta))
	}
}

// BenchmarkPipelineIngest measures the sharded concurrent ingestion fast
// path — per-producer staging buffers shipped to shard workers one channel
// hop per batch — against direct single-sketch updates
// (BenchmarkUpdateTracking).
func BenchmarkPipelineIngest(b *testing.B) {
	p, err := pipeline.New(dcs.Config{Seed: 37}, 2, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ups := benchWorkload(b, 100_000, 640, 1.0).Updates()
	bt := p.NewBatcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		bt.Update(u.Src, u.Dst, int64(u.Delta))
	}
	bt.Flush()
}

// BenchmarkSerializeSketch measures the RLE wire encoding.
func BenchmarkSerializeSketch(b *testing.B) {
	sk, err := dcs.New(dcs.Config{Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	w := benchWorkload(b, 100_000, 640, 1.0)
	for _, u := range w.Updates() {
		sk.Update(u.Src, u.Dst, int64(u.Delta))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
