package dcs

import (
	"math"
	"testing"

	"dcsketch/internal/exact"
	"dcsketch/internal/hashing"
)

func mustNew(t testing.TB, cfg Config) *Sketch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	s := mustNew(t, Config{})
	cfg := s.Config()
	if cfg.Tables != DefaultTables || cfg.Buckets != DefaultBuckets ||
		cfg.Levels != DefaultLevels || cfg.Epsilon != DefaultEpsilon ||
		cfg.SampleTarget != DefaultBuckets {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Tables: -1},
		{Buckets: 1},
		{Levels: 65},
		{Levels: -3},
		{Epsilon: 1.5},
		{Epsilon: -0.1},
		{SampleTarget: -1},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestPaperSampleTarget(t *testing.T) {
	if got := PaperSampleTarget(128, 1.0/3.0); got != 10 {
		t.Fatalf("PaperSampleTarget(128, 1/3) = %d, want 10", got)
	}
	if got := PaperSampleTarget(2, 0.1); got != 1 {
		t.Fatalf("tiny target must clamp to 1, got %d", got)
	}
}

func TestSmallStreamExactRecovery(t *testing.T) {
	// With few distinct pairs relative to s, every pair is recovered and
	// the estimate is exact (scale 2^0 = 1 once the loop hits level 0).
	s := mustNew(t, Config{Buckets: 256, Seed: 1})
	// dest 10: 5 sources; dest 20: 3; dest 30: 1.
	for src := uint32(1); src <= 5; src++ {
		s.Update(src, 10, 1)
	}
	for src := uint32(1); src <= 3; src++ {
		s.Update(src, 20, 1)
	}
	s.Update(1, 30, 1)

	top := s.TopK(3)
	want := []Estimate{{10, 5}, {20, 3}, {30, 1}}
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries: %+v", len(top), top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, top[i], want[i])
		}
	}
}

func TestTopKZero(t *testing.T) {
	s := mustNew(t, Config{})
	if got := s.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
	if got := s.TopK(-2); got != nil {
		t.Fatalf("TopK(-2) = %v, want nil", got)
	}
}

func TestEmptySketchQueries(t *testing.T) {
	s := mustNew(t, Config{})
	if got := s.TopK(5); len(got) != 0 {
		t.Fatalf("TopK on empty sketch = %v", got)
	}
	if got := s.EstimateDistinctPairs(); got != 0 {
		t.Fatalf("EstimateDistinctPairs on empty sketch = %d", got)
	}
	if got := s.NonEmptyLevels(); got != 0 {
		t.Fatalf("NonEmptyLevels on empty sketch = %d", got)
	}
}

func TestUpdateZeroDeltaIsNoop(t *testing.T) {
	s := mustNew(t, Config{})
	s.Update(1, 2, 0)
	if s.Updates() != 0 {
		t.Fatal("zero-delta update must not count")
	}
	if s.NonEmptyLevels() != 0 {
		t.Fatal("zero-delta update must not touch counters")
	}
}

// TestDeleteResilience is the paper's central structural claim: the sketch
// after inserts of X∪Y followed by deletes of Y is bit-identical to a sketch
// that only ever saw X.
func TestDeleteResilience(t *testing.T) {
	cfg := Config{Seed: 7}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)

	rng := hashing.NewSplitMix64(9)
	keepers := make([]uint64, 500)
	for i := range keepers {
		keepers[i] = rng.Next()
	}
	transients := make([]uint64, 800)
	for i := range transients {
		transients[i] = rng.Next()
	}

	for _, k := range keepers {
		a.UpdateKey(k, 1)
		b.UpdateKey(k, 1)
	}
	for _, k := range transients {
		a.UpdateKey(k, 1)
	}
	for _, k := range transients {
		a.UpdateKey(k, -1)
	}

	for i := range a.counters {
		if a.counters[i] != b.counters[i] {
			t.Fatalf("counter %d differs after delete cycle: %d vs %d",
				i, a.counters[i], b.counters[i])
		}
	}
}

func TestMergeLinearity(t *testing.T) {
	cfg := Config{Seed: 11}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	both := mustNew(t, cfg)

	rng := hashing.NewSplitMix64(13)
	for i := 0; i < 1000; i++ {
		k := rng.Next()
		if i%2 == 0 {
			a.UpdateKey(k, 1)
		} else {
			b.UpdateKey(k, 1)
		}
		both.UpdateKey(k, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for i := range a.counters {
		if a.counters[i] != both.counters[i] {
			t.Fatalf("merged counter %d = %d, want %d", i, a.counters[i], both.counters[i])
		}
	}
	if a.Updates() != both.Updates() {
		t.Fatalf("merged updates = %d, want %d", a.Updates(), both.Updates())
	}
}

func TestSubtractInvertsMerge(t *testing.T) {
	cfg := Config{Seed: 91}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	onlyA := mustNew(t, cfg)

	rng := hashing.NewSplitMix64(93)
	for i := 0; i < 1500; i++ {
		k := rng.Next()
		if i%3 == 0 {
			b.UpdateKey(k, 1)
		} else {
			onlyA.UpdateKey(k, 1)
		}
	}
	if err := a.Merge(onlyA); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatalf("Subtract: %v", err)
	}
	for i := range a.counters {
		if a.counters[i] != onlyA.counters[i] {
			t.Fatalf("counter %d = %d after subtract, want %d", i, a.counters[i], onlyA.counters[i])
		}
	}
	if a.Updates() != onlyA.Updates() {
		t.Fatalf("updates = %d, want %d", a.Updates(), onlyA.Updates())
	}
	if err := a.Subtract(nil); err == nil {
		t.Fatal("subtracting nil must fail")
	}
	other := mustNew(t, Config{Seed: 94})
	if err := a.Subtract(other); err == nil {
		t.Fatal("subtracting an incompatible sketch must fail")
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := mustNew(t, Config{Seed: 1})
	b := mustNew(t, Config{Seed: 2})
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different seeds must fail")
	}
	c := mustNew(t, Config{Seed: 1, Buckets: 64})
	if err := a.Merge(c); err == nil {
		t.Fatal("merging sketches with different sizes must fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil must fail")
	}
}

func TestReset(t *testing.T) {
	s := mustNew(t, Config{})
	for i := uint64(0); i < 100; i++ {
		s.UpdateKey(i, 1)
	}
	s.Reset()
	if s.Updates() != 0 || s.NonEmptyLevels() != 0 {
		t.Fatal("Reset must clear all state")
	}
}

func TestRepeatedPairCountsOnceInFrequency(t *testing.T) {
	// A source sending many SYNs to one destination is one distinct
	// source; the sample carries its net count but frequency counts pairs.
	s := mustNew(t, Config{Buckets: 256, Seed: 3})
	for i := 0; i < 50; i++ {
		s.Update(1, 10, 1)
	}
	s.Update(2, 10, 1)
	top := s.TopK(1)
	if len(top) != 1 || top[0].Dest != 10 || top[0].F != 2 {
		t.Fatalf("TopK = %+v, want [{10 2}]", top)
	}
}

func TestThreshold(t *testing.T) {
	s := mustNew(t, Config{Buckets: 256, Seed: 5})
	for src := uint32(1); src <= 8; src++ {
		s.Update(src, 10, 1)
	}
	for src := uint32(1); src <= 2; src++ {
		s.Update(src, 20, 1)
	}
	got := s.Threshold(5)
	if len(got) != 1 || got[0].Dest != 10 || got[0].F != 8 {
		t.Fatalf("Threshold(5) = %+v", got)
	}
	if got := s.Threshold(1); len(got) != 2 {
		t.Fatalf("Threshold(1) = %+v, want 2 destinations", got)
	}
}

func TestNonEmptyLevelsTracksLogU(t *testing.T) {
	// The number of non-empty first-level buckets grows like log2(U)
	// (paper §6.1: ~23 levels at U = 8·10^6).
	s := mustNew(t, Config{Seed: 17})
	rng := hashing.NewSplitMix64(19)
	const u = 1 << 14
	for i := 0; i < u; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	got := s.NonEmptyLevels()
	if got < 12 || got > 20 {
		t.Fatalf("NonEmptyLevels at U=2^14: %d, want ~14-16", got)
	}
}

func TestEstimateDistinctPairs(t *testing.T) {
	s := mustNew(t, Config{Seed: 23})
	rng := hashing.NewSplitMix64(29)
	const u = 20000
	for i := 0; i < u; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	got := float64(s.EstimateDistinctPairs())
	if math.Abs(got-u)/u > 0.35 {
		t.Fatalf("EstimateDistinctPairs = %v, want within 35%% of %d", got, u)
	}
}

// zipfStream feeds a skewed distinct-source workload into the given update
// functions: dest of rank i (1-based) receives ~mass/i^z distinct sources.
func zipfStream(dests int, z float64, mass float64, apply ...func(src, dst uint32, delta int64)) {
	src := uint32(1)
	for i := 1; i <= dests; i++ {
		f := int(mass / math.Pow(float64(i), z))
		if f < 1 {
			f = 1
		}
		dst := uint32(i)
		for j := 0; j < f; j++ {
			for _, fn := range apply {
				fn(src, dst, 1)
			}
			src++
		}
	}
}

func TestAccuracyOnSkewedWorkload(t *testing.T) {
	// Top-5 recall on a z=1.5 Zipf-like workload must be high and the
	// frequency estimates must be within loose relative-error bounds.
	// This mirrors Fig. 8 qualitatively; exact thresholds are generous to
	// stay robust across seeds.
	s := mustNew(t, Config{Buckets: 512, Seed: 31})
	ex := exact.New()
	zipfStream(2000, 1.5, 30000, s.Update, ex.Update)

	const k = 5
	approx := s.TopK(k)
	truth := ex.TopK(k)
	trueSet := make(map[uint32]int64, k)
	for _, e := range truth {
		trueSet[e.Key] = e.Priority
	}
	hits := 0
	for _, e := range approx {
		if _, ok := trueSet[e.Dest]; ok {
			hits++
		}
	}
	if hits < 4 {
		t.Fatalf("top-%d recall = %d/%d; approx=%+v truth=%+v", k, hits, k, approx, truth)
	}
	for _, e := range approx {
		f, ok := trueSet[e.Dest]
		if !ok {
			continue
		}
		rel := math.Abs(float64(e.F-f)) / float64(f)
		if rel > 0.5 {
			t.Errorf("dest %d: estimate %d vs true %d (rel err %.2f)", e.Dest, e.F, f, rel)
		}
	}
}

func TestFlashCrowdDeletionsClearFrequencies(t *testing.T) {
	// Flash crowd: many distinct sources connect and then complete their
	// handshakes (deletes). A lingering attack stays. The sketch must
	// rank the attack destination first afterwards.
	s := mustNew(t, Config{Buckets: 512, Seed: 37})
	const crowd = 5000
	for i := uint32(0); i < crowd; i++ {
		s.Update(1000+i, 80, 1) // flash crowd to dest 80
	}
	for i := uint32(0); i < 400; i++ {
		s.Update(50000+i, 443, 1) // attack on dest 443
	}
	for i := uint32(0); i < crowd; i++ {
		s.Update(1000+i, 80, -1) // crowd handshakes complete
	}
	top := s.TopK(1)
	if len(top) != 1 || top[0].Dest != 443 {
		t.Fatalf("after crowd completion TopK = %+v, want dest 443", top)
	}
	if math.Abs(float64(top[0].F)-400)/400 > 0.4 {
		t.Fatalf("attack frequency estimate %d, want ~400", top[0].F)
	}
}

func TestDistinctSampleLevelScale(t *testing.T) {
	// Each sampled pair must truly hash to a level >= the reported level.
	s := mustNew(t, Config{Seed: 41})
	rng := hashing.NewSplitMix64(43)
	for i := 0; i < 30000; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	pairs, level := s.DistinctSample()
	if len(pairs) < s.Config().SampleTarget {
		t.Fatalf("sample size %d below target %d", len(pairs), s.Config().SampleTarget)
	}
	for _, p := range pairs {
		if got := s.LevelOf(p.Key); got < level {
			t.Fatalf("sampled pair at level %d < reported level %d", got, level)
		}
	}
}

func TestSampleIsDistinct(t *testing.T) {
	s := mustNew(t, Config{Seed: 47})
	rng := hashing.NewSplitMix64(53)
	for i := 0; i < 5000; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	pairs, _ := s.DistinctSample()
	seen := make(map[uint64]struct{}, len(pairs))
	for _, p := range pairs {
		if _, dup := seen[p.Key]; dup {
			t.Fatalf("duplicate key %x in distinct sample", p.Key)
		}
		seen[p.Key] = struct{}{}
	}
}

func TestFingerprintAblationStillWorksOnInsertOnly(t *testing.T) {
	// With the fingerprint disabled (the paper's exact structure),
	// insert-only workloads must still produce correct samples.
	s := mustNew(t, Config{Buckets: 256, Seed: 59, DisableFingerprint: true})
	for src := uint32(1); src <= 20; src++ {
		s.Update(src, 7, 1)
	}
	top := s.TopK(1)
	if len(top) != 1 || top[0].Dest != 7 || top[0].F != 20 {
		t.Fatalf("TopK = %+v, want [{7 20}]", top)
	}
}

func TestSizeBytes(t *testing.T) {
	s := mustNew(t, Config{})
	want := 64 * 3 * 128 * 66 * 8
	if got := s.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	p := mustNew(t, Config{DisableFingerprint: true})
	want = 64 * 3 * 128 * 65 * 8
	if got := p.SizeBytes(); got != want {
		t.Fatalf("paper-layout SizeBytes = %d, want %d", got, want)
	}
}
