package dcs

import (
	"math/rand"
	"slices"
	"testing"
)

// randomStream builds n updates with inserts and matched deletes (a delete
// only ever removes a pair previously inserted and still live), the shape
// the half-open state machine produces and the dcsdebug assertions expect.
func randomStream(rng *rand.Rand, n int) []KeyDelta {
	stream := make([]KeyDelta, 0, n)
	live := make([]uint64, 0, n)
	for len(stream) < n {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			stream = append(stream, KeyDelta{Key: live[i], Delta: -1})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		key := rng.Uint64()
		stream = append(stream, KeyDelta{Key: key, Delta: 1})
		live = append(live, key)
	}
	return stream
}

// TestUpdateBatchEquivalence checks the batched kernel against the scalar
// path: any chunking of a stream (including deletes) must produce
// byte-identical sketch state.
func TestUpdateBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 5000)

	for _, cfg := range []Config{{Seed: 11}, {Seed: 11, DisableFingerprint: true}} {
		scalar := mustNew(t, cfg)
		batched := mustNew(t, cfg)

		for _, u := range stream {
			scalar.UpdateKey(u.Key, u.Delta)
		}
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(700) // covers 1-element and multi-hundred chunks
			if off+n > len(stream) {
				n = len(stream) - off
			}
			batched.UpdateBatch(stream[off : off+n])
			off += n
		}

		if !slices.Equal(scalar.counters, batched.counters) {
			t.Fatalf("cfg %+v: batched counters diverge from scalar", cfg)
		}
		if !slices.Equal(scalar.occupied, batched.occupied) {
			t.Fatalf("cfg %+v: batched occupancy diverges from scalar", cfg)
		}
		if scalar.Updates() != batched.Updates() {
			t.Fatalf("cfg %+v: updates %d != %d", cfg, scalar.Updates(), batched.Updates())
		}
	}
}

// TestUpdateBatchSerialRoundTrip checks the batched kernel composes with the
// flat-counter serialization: a sketch fed through UpdateBatch must encode
// byte-identically to a scalar-fed twin, and both must keep producing
// identical state when updating resumes on the decoded copies.
func TestUpdateBatchSerialRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	first, second := randomStream(rng, 3000), randomStream(rng, 2000)
	cfg := Config{Seed: 19}

	scalar := mustNew(t, cfg)
	batched := mustNew(t, cfg)
	for _, u := range first {
		scalar.UpdateKey(u.Key, u.Delta)
	}
	batched.UpdateBatch(first)

	encScalar, err := scalar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	encBatched, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(encScalar, encBatched) {
		t.Fatal("batched sketch encodes differently from scalar twin")
	}

	// Resume on the decoded copies, crossing the kernels over: the decoded
	// scalar twin continues batched and vice versa.
	reScalar, err := UnmarshalBinary(encScalar)
	if err != nil {
		t.Fatal(err)
	}
	reBatched, err := UnmarshalBinary(encBatched)
	if err != nil {
		t.Fatal(err)
	}
	reScalar.UpdateBatch(second)
	for _, u := range second {
		reBatched.UpdateKey(u.Key, u.Delta)
	}
	if !slices.Equal(reScalar.counters, reBatched.counters) {
		t.Fatal("post-round-trip counters diverge between kernels")
	}
	if !slices.Equal(reScalar.occupied, reBatched.occupied) {
		t.Fatal("post-round-trip occupancy diverges between kernels")
	}
}

// TestOccupancyIncrementalMatchesRecount checks that the occupancy index the
// kernel maintains per update equals a from-scratch recount, across inserts,
// deletes, merge, subtract and reset.
func TestOccupancyIncrementalMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := Config{Seed: 3}
	s := mustNew(t, cfg)
	other := mustNew(t, cfg)

	checkOccupancy := func(stage string, sk *Sketch) {
		t.Helper()
		got := slices.Clone(sk.occupied)
		sk.recountOccupancy()
		if !slices.Equal(got, sk.occupied) {
			t.Fatalf("%s: incremental occupancy %v != recount %v", stage, got, sk.occupied)
		}
	}

	s.UpdateBatch(randomStream(rng, 3000))
	checkOccupancy("after stream", s)

	other.UpdateBatch(randomStream(rng, 1000))
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	checkOccupancy("after merge", s)

	if err := s.Subtract(other); err != nil {
		t.Fatal(err)
	}
	checkOccupancy("after subtract", s)

	s.Reset()
	checkOccupancy("after reset", s)
	for _, occ := range s.occupied {
		if occ != 0 {
			t.Fatalf("after reset: occupancy %v not zero", s.occupied)
		}
	}
}

// TestOccupiedBuckets checks the exported per-level occupancy accessor: the
// totals over all levels must equal the number of non-zero-total buckets.
func TestOccupiedBuckets(t *testing.T) {
	cfg := Config{Seed: 5}
	s := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(17))
	s.UpdateBatch(randomStream(rng, 2000))

	total := 0
	for lvl := 0; lvl < s.Config().Levels; lvl++ {
		n := s.OccupiedBuckets(lvl)
		if n < 0 {
			t.Fatalf("level %d: negative occupancy %d", lvl, n)
		}
		total += n
	}
	nonZero := 0
	for i := 0; i < len(s.counters); i += s.width {
		if s.counters[i] != 0 {
			nonZero++
		}
	}
	if total != nonZero {
		t.Fatalf("occupancy total %d != %d non-zero-total buckets", total, nonZero)
	}
}

// TestUpdateBatchEmptyAndZeroDelta checks the degenerate batch shapes.
func TestUpdateBatchEmptyAndZeroDelta(t *testing.T) {
	s := mustNew(t, Config{Seed: 1})
	s.UpdateBatch(nil)
	s.UpdateBatch([]KeyDelta{})
	if got := s.Updates(); got != 0 {
		t.Fatalf("empty batches counted %d updates", got)
	}
}

// scanNonEmptyLevels is the reference definition NonEmptyLevels replaced: a
// walk over every signature counting the levels that hold any non-zero
// counter.
func scanNonEmptyLevels(s *Sketch) int {
	n := 0
	for l := 0; l < s.cfg.Levels; l++ {
	scan:
		for j := 0; j < s.cfg.Tables; j++ {
			for b := 0; b < s.cfg.Buckets; b++ {
				if !s.layout.IsZero(s.bucketSig(l, j, b)) {
					n++
					break scan
				}
			}
		}
	}
	return n
}

// TestNonEmptyLevelsMatchesScan checks that counting non-empty levels from
// the occupancy index agrees with the full signature scan on well-formed
// streams: under random insert/delete churn, after every pair of a level is
// deleted back to zero, and after Merge, Subtract, UnmarshalBinary and Reset.
func TestNonEmptyLevelsMatchesScan(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 3},
		{Seed: 3, DisableFingerprint: true},
		{Seed: 1, Tables: 3, Buckets: 128},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.Seed) + 41))
		check := func(stage string, sk *Sketch) int {
			t.Helper()
			got, want := sk.NonEmptyLevels(), scanNonEmptyLevels(sk)
			if got != want {
				t.Fatalf("%+v %s: NonEmptyLevels = %d, scan = %d", cfg, stage, got, want)
			}
			return got
		}

		s := mustNew(t, cfg)
		check("empty", s)
		stream := randomStream(rng, 6000)
		for i := 0; i < len(stream); i += 500 {
			s.UpdateBatch(stream[i:min(i+500, len(stream))])
			check("random stream", s)
		}

		// Delete every live pair of one level at a time: each level must
		// drop out of both counts exactly when its last pair goes.
		live := map[uint64]int64{}
		for _, u := range stream {
			live[u.Key] += u.Delta
		}
		byLevel := map[int][]uint64{}
		for key, c := range live {
			if c > 0 {
				l := s.LevelOf(key)
				byLevel[l] = append(byLevel[l], key)
			}
		}
		if len(byLevel) == 0 {
			t.Fatalf("%+v: random stream left no live pairs", cfg)
		}
		for l, keys := range byLevel {
			before := check("before level drain", s)
			for _, key := range keys {
				s.UpdateKey(key, -1)
			}
			if s.OccupiedBuckets(l) != 0 {
				t.Fatalf("%+v: level %d occupancy %d after deleting all its pairs", cfg, l, s.OccupiedBuckets(l))
			}
			if after := check("after level drain", s); after != before-1 {
				t.Fatalf("%+v: draining level %d moved NonEmptyLevels %d -> %d", cfg, l, before, after)
			}
		}
		if n := check("fully drained", s); n != 0 {
			t.Fatalf("%+v: %d non-empty levels after deleting every pair", cfg, n)
		}

		// Bulk linear operations rebuild the index by recount.
		s.UpdateBatch(randomStream(rng, 3000))
		other := mustNew(t, cfg)
		other.UpdateBatch(randomStream(rng, 3000))
		if err := s.Merge(other); err != nil {
			t.Fatal(err)
		}
		check("after merge", s)
		if err := s.Subtract(other); err != nil {
			t.Fatal(err)
		}
		check("after subtract", s)
		if err := other.Subtract(other); err != nil {
			t.Fatal(err)
		}
		if n := check("after self-subtract", other); n != 0 {
			t.Fatalf("%+v: %d non-empty levels after subtracting a sketch from itself", cfg, n)
		}

		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := UnmarshalBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := check("after unmarshal", decoded), s.NonEmptyLevels(); got != want {
			t.Fatalf("%+v: round trip moved NonEmptyLevels %d -> %d", cfg, want, got)
		}

		s.Reset()
		if n := check("after reset", s); n != 0 {
			t.Fatalf("%+v: %d non-empty levels after Reset", cfg, n)
		}
	}
}
