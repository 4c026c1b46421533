package dcs

import (
	"math"
	"slices"
	"testing"
	"unsafe"

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
		cfg.Levels != DefaultLevels || cfg.SampleTarget != DefaultBuckets {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Tables: -1},
		{Buckets: 1},
		{Levels: 65},
		{Levels: -3},
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

	ac, bc := flatCounters(a), flatCounters(b)
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatalf("counter %d differs after delete cycle: %d vs %d",
				i, ac[i], bc[i])
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
	ac, bothc := flatCounters(a), flatCounters(both)
	for i := range ac {
		if ac[i] != bothc[i] {
			t.Fatalf("merged counter %d = %d, want %d", i, ac[i], bothc[i])
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
	ac, onlyAc := flatCounters(a), flatCounters(onlyA)
	for i := range ac {
		if ac[i] != onlyAc[i] {
			t.Fatalf("counter %d = %d after subtract, want %d", i, ac[i], onlyAc[i])
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

// keyAtLevel returns the first key drawn from rng that maps to level.
func keyAtLevel(s *Sketch, rng *hashing.SplitMix64, level int) uint64 {
	for {
		if k := rng.Next(); s.LevelOf(k) == level {
			return k
		}
	}
}

// TestSizeBytes pins the level contract: a sketch holds counters only for
// the levels below the highest one a stream has reached, Reset keeps them,
// and Merge and Subtract adopt the larger of the two operands' levels.
func TestSizeBytes(t *testing.T) {
	for _, cfg := range []Config{{Seed: 3}, {Seed: 3, DisableFingerprint: true}} {
		s := mustNew(t, cfg)
		// Per bucket 64 4-byte lanes, a total and (by default) a
		// fingerprint: 104,448 bytes a level at 3×128, 101,376 without
		// the fingerprint.
		slab := s.cfg.Tables * s.cfg.Buckets * (64*4 + 8*s.nwords)
		if want := map[bool]int{false: 104_448, true: 101_376}[cfg.DisableFingerprint]; slab != want {
			t.Fatalf("cfg %+v: slab %d bytes, want %d", cfg, slab, want)
		}
		if got := s.SizeBytes(); got != 0 {
			t.Fatalf("cfg %+v: fresh SizeBytes = %d, want 0", cfg, got)
		}
		rng := hashing.NewSplitMix64(5)
		const level = 6
		s.UpdateKey(keyAtLevel(s, rng, level), 1)
		if got, want := s.SizeBytes(), (level+1)*slab; got != want {
			t.Fatalf("cfg %+v: SizeBytes after one key at level %d = %d, want %d", cfg, level, got, want)
		}
		if s.LevelsAllocated() != level+1 {
			t.Fatalf("cfg %+v: LevelsAllocated = %d, want %d", cfg, s.LevelsAllocated(), level+1)
		}
		s.Reset()
		if got, want := s.SizeBytes(), (level+1)*slab; got != want {
			t.Fatalf("cfg %+v: SizeBytes after Reset = %d, want %d (slabs kept)", cfg, got, want)
		}

		high := mustNew(t, cfg)
		high.UpdateKey(keyAtLevel(high, rng, level+3), 1)
		if err := s.Merge(high); err != nil {
			t.Fatal(err)
		}
		if got, want := s.SizeBytes(), (level+4)*slab; got != want {
			t.Fatalf("cfg %+v: SizeBytes after Merge = %d, want %d", cfg, got, want)
		}
		// A key inserted and deleted leaves no counters, but its level
		// stays allocated.
		gone := mustNew(t, cfg)
		k := keyAtLevel(gone, rng, level+5)
		gone.UpdateKey(k, 1)
		gone.UpdateKey(k, -1)
		if err := s.Subtract(gone); err != nil {
			t.Fatal(err)
		}
		if got, want := s.SizeBytes(), (level+6)*slab; got != want {
			t.Fatalf("cfg %+v: SizeBytes after Subtract = %d, want %d", cfg, got, want)
		}
	}
}

// TestMergeSubtractUnequalLevels checks Merge and Subtract stay exact when
// the operands have allocated different levels, with the higher one on
// either side.
func TestMergeSubtractUnequalLevels(t *testing.T) {
	cfg := Config{Seed: 37}
	rng := hashing.NewSplitMix64(41)
	keys := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = rng.Next()
		}
		return ks
	}
	build := func(ks []uint64) *Sketch {
		s := mustNew(t, cfg)
		for _, k := range ks {
			s.UpdateKey(k, 1)
		}
		return s
	}
	lowKeys, highKeys := keys(20), keys(5000)
	if low, high := build(lowKeys), build(highKeys); low.LevelsAllocated() >= high.LevelsAllocated() {
		t.Fatalf("operands allocate %d and %d levels; the test needs the first lower", low.LevelsAllocated(), high.LevelsAllocated())
	}
	for _, order := range [][2][]uint64{{lowKeys, highKeys}, {highKeys, lowKeys}} {
		a, b := build(order[0]), build(order[1])
		before := flatCounters(a)
		want := flatCounters(b)
		for i := range want {
			want[i] += before[i]
		}
		top := max(a.LevelsAllocated(), b.LevelsAllocated())
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(flatCounters(a), want) {
			t.Fatalf("%d+%d keys: merged counters differ from the sum", len(order[0]), len(order[1]))
		}
		if a.LevelsAllocated() != top {
			t.Fatalf("%d+%d keys: merged sketch allocates %d levels, want %d", len(order[0]), len(order[1]), a.LevelsAllocated(), top)
		}
		if err := a.Subtract(b); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(flatCounters(a), before) {
			t.Fatalf("%d+%d keys: subtract did not invert merge", len(order[0]), len(order[1]))
		}
		if a.LevelsAllocated() != top {
			t.Fatalf("%d+%d keys: subtract freed levels: %d, want %d", len(order[0]), len(order[1]), a.LevelsAllocated(), top)
		}
	}
}

// TestChurnMemoryBounded is the memory regression: under the daemon's
// sketch configuration, 1M churn updates over 20k live pairs must allocate
// a few more than log2(1M) levels, not all 64. The highest level any of the
// ~510k distinct pairs reaches sets the count, and a pair reaches level L or
// above with probability 2^-L, so a stream exceeds B slabs with probability
// below 510k·2^-B: about 1/8 for log2(1M)+2 = 22 slabs, which this stream
// exceeds (one pair at level 24), and below 1/500 for the log2(1M)+8 = 28
// asserted here.
func TestChurnMemoryBounded(t *testing.T) {
	const updates, liveN = 1_000_000, 20_000
	s := mustNew(t, Config{Tables: 3, Buckets: 128, Seed: 1})
	rng := hashing.NewSplitMix64(43)
	live := make([]uint64, liveN)
	batch := make([]KeyDelta, 0, updates)
	for i := range live {
		live[i] = rng.Next()
		batch = append(batch, KeyDelta{Key: live[i], Delta: 1})
	}
	// Each further pair of updates retires the oldest live pair and
	// inserts a fresh one.
	for i := 0; len(batch) < updates; i = (i + 1) % liveN {
		batch = append(batch, KeyDelta{Key: live[i], Delta: -1})
		live[i] = rng.Next()
		batch = append(batch, KeyDelta{Key: live[i], Delta: 1})
	}
	s.UpdateBatch(batch)
	slab := s.cfg.Tables * s.cfg.Buckets * (64*4 + 8*s.nwords)
	maxSlabs := int(math.Ceil(math.Log2(updates))) + 8
	if got := s.SizeBytes(); got > maxSlabs*slab {
		t.Fatalf("SizeBytes = %d (%d slabs), want <= %d slabs", got, got/slab, maxSlabs)
	}
}

// TestAddendsAligned pins the addend vector to a 32-byte boundary, where the
// AVX2 kernels' loads and stores of it never straddle a cache line.
func TestAddendsAligned(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		s := mustNew(t, Config{Seed: seed})
		if at := uintptr(unsafe.Pointer(s.addends)); at%32 != 0 {
			t.Fatalf("addends at %#x, want a multiple of 32", at)
		}
	}
}
