package tdcs

import (
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
)

func mustNew(t testing.TB, cfg dcs.Config) *Sketch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

// driveRandom feeds n random updates (with ~1/4 deletes of previously
// inserted pairs) into each of the given update functions.
func driveRandom(seed uint64, n int, domain uint64, apply ...func(key uint64, delta int64)) {
	rng := hashing.NewSplitMix64(seed)
	var live []uint64
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Next()%4 == 0 {
			idx := int(rng.Next() % uint64(len(live)))
			key := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			for _, fn := range apply {
				fn(key, -1)
			}
			continue
		}
		key := hashing.Mix64(rng.Next() % domain)
		live = append(live, key)
		for _, fn := range apply {
			fn(key, 1)
		}
	}
}

// TestEquivalenceWithBasicSketch is the strongest invariant in the package:
// under any insert/delete stream, TrackTopk on a tracking sketch returns
// exactly what BaseTopk returns on a basic sketch with the same seed,
// because the incrementally-maintained sample equals the recomputed one.
func TestEquivalenceWithBasicSketch(t *testing.T) {
	cfg := dcs.Config{Buckets: 64, Seed: 5}
	tr := mustNew(t, cfg)
	base, err := dcs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int) {
		a := tr.TopK(10)
		b := base.TopK(10)
		if len(a) != len(b) {
			t.Fatalf("step %d: lengths differ: tracking=%v basic=%v", step, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: entry %d differs: tracking=%+v basic=%+v", step, i, a[i], b[i])
			}
		}
	}

	rng := hashing.NewSplitMix64(7)
	var live []uint64
	for step := 0; step < 8000; step++ {
		if len(live) > 0 && rng.Next()%3 == 0 {
			idx := int(rng.Next() % uint64(len(live)))
			key := live[idx]
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			tr.UpdateKey(key, -1)
			base.UpdateKey(key, -1)
		} else {
			// Confine keys to a small domain so repeats and true
			// collisions are exercised.
			key := hashing.Mix64(rng.Next() % 3000)
			live = append(live, key)
			tr.UpdateKey(key, 1)
			base.UpdateKey(key, 1)
		}
		if step%500 == 0 {
			check(step)
		}
	}
	check(8000)
}

// TestIncrementalMatchesRebuild verifies that the incrementally maintained
// tracking state is what a from-scratch reconstruction from the same
// counters holds, at the levels both track, that it holds nothing below
// its floor, and that the two answer every query alike.
func TestIncrementalMatchesRebuild(t *testing.T) {
	cfg := dcs.Config{Buckets: 64, Seed: 11}
	tr := mustNew(t, cfg)
	driveRandom(13, 10000, 5000, tr.UpdateKey)
	if tr.FloorRaises() == 0 {
		t.Fatal("the tracking floor never rose, so the comparison covers full tracking only")
	}
	rebuilt := mustNew(t, cfg)
	if err := rebuilt.Merge(tr); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sketch{tr, rebuilt} {
		if err := recountTracking(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sameTracking(rebuilt, tr); err != nil {
		t.Fatal(err)
	}
}

func TestSmallStreamExactRecovery(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 256, Seed: 1})
	for src := uint32(1); src <= 5; src++ {
		tr.Update(src, 10, 1)
	}
	for src := uint32(1); src <= 3; src++ {
		tr.Update(src, 20, 1)
	}
	top := tr.TopK(2)
	want := []dcs.Estimate{{Dest: 10, F: 5}, {Dest: 20, F: 3}}
	if len(top) != 2 || top[0] != want[0] || top[1] != want[1] {
		t.Fatalf("TopK = %+v, want %+v", top, want)
	}
}

func TestDeletionMovesTopK(t *testing.T) {
	// dest 10 leads; deleting its flows must promote dest 20 — the flash
	// crowd vs SYN flood discrimination in miniature.
	tr := mustNew(t, dcs.Config{Buckets: 256, Seed: 3})
	for src := uint32(1); src <= 6; src++ {
		tr.Update(src, 10, 1)
	}
	for src := uint32(1); src <= 4; src++ {
		tr.Update(src, 20, 1)
	}
	if top := tr.TopK(1); len(top) != 1 || top[0].Dest != 10 {
		t.Fatalf("before deletes TopK = %+v", top)
	}
	for src := uint32(1); src <= 6; src++ {
		tr.Update(src, 10, -1)
	}
	top := tr.TopK(1)
	if len(top) != 1 || top[0].Dest != 20 || top[0].F != 4 {
		t.Fatalf("after deletes TopK = %+v, want [{20 4}]", top)
	}
}

func TestTopKDoesNotMutateState(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 64, Seed: 17})
	driveRandom(19, 3000, 2000, tr.UpdateKey)
	a := tr.TopK(10)
	for i := 0; i < 50; i++ {
		tr.TopK(10)
	}
	b := tr.TopK(10)
	if len(a) != len(b) {
		t.Fatal("repeated TopK changed the answer length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeated TopK changed entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestThreshold(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 256, Seed: 23})
	for src := uint32(1); src <= 9; src++ {
		tr.Update(src, 10, 1)
	}
	for src := uint32(1); src <= 2; src++ {
		tr.Update(src, 20, 1)
	}
	got := tr.Threshold(5)
	if len(got) != 1 || got[0].Dest != 10 || got[0].F != 9 {
		t.Fatalf("Threshold(5) = %+v", got)
	}
}

func TestMergeRebuildsTracking(t *testing.T) {
	cfg := dcs.Config{Buckets: 128, Seed: 29}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	both := mustNew(t, cfg)

	rng := hashing.NewSplitMix64(31)
	for i := 0; i < 2000; i++ {
		key := hashing.Mix64(rng.Next() % 1500)
		if i%2 == 0 {
			a.UpdateKey(key, 1)
		} else {
			b.UpdateKey(key, 1)
		}
		both.UpdateKey(key, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ta, tb := a.TopK(10), both.TopK(10)
	if len(ta) != len(tb) {
		t.Fatalf("merged TopK length %d, want %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("merged TopK[%d] = %+v, want %+v", i, ta[i], tb[i])
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := mustNew(t, dcs.Config{Seed: 1})
	b := mustNew(t, dcs.Config{Seed: 2})
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different seeds must fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil must fail")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 64, Seed: 37})
	driveRandom(41, 5000, 3000, tr.UpdateKey)

	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	a, b := tr.TopK(10), got.TopK(10)
	if len(a) != len(b) {
		t.Fatalf("TopK lengths differ after round trip: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopK[%d] differs after round trip: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReset(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 64, Seed: 43})
	driveRandom(47, 1000, 500, tr.UpdateKey)
	tr.Reset()
	if tr.Updates() != 0 {
		t.Fatal("Reset must clear the update counter")
	}
	if got := tr.TopK(5); len(got) != 0 {
		t.Fatalf("TopK after Reset = %+v", got)
	}
	for b := range tr.singles {
		if len(tr.singles[b]) != 0 || tr.heaps[b].Len() != 0 {
			t.Fatalf("level %d retains tracking state after Reset", b)
		}
	}
}

func TestTopKZeroAndEmpty(t *testing.T) {
	tr := mustNew(t, dcs.Config{})
	if got := tr.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := tr.TopK(5); len(got) != 0 {
		t.Fatalf("TopK on empty sketch = %v", got)
	}
}

func TestSampleKeysConsistent(t *testing.T) {
	tr := mustNew(t, dcs.Config{Buckets: 64, Seed: 53})
	driveRandom(59, 4000, 2500, tr.UpdateKey)
	keys := tr.SampleKeys()
	seen := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate key %x in sample", k)
		}
		seen[k] = struct{}{}
	}
	if int64(len(keys)) > tr.EstimateDistinctPairs() {
		t.Fatal("sample larger than the distinct-pair estimate implies a scaling bug")
	}
}

func TestUpdatesCounter(t *testing.T) {
	tr := mustNew(t, dcs.Config{})
	tr.Update(1, 2, 1)
	tr.Update(1, 2, -1)
	tr.Update(1, 2, 0)
	if got := tr.Updates(); got != 2 {
		t.Fatalf("Updates = %d, want 2", got)
	}
}
