package tdcs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/iheap"
)

// churnStream is a well-formed delete-heavy stream: each step inserts a
// fresh pair and, once live pairs are in flight, deletes a random live one.
// Destinations come from a small set so that heaps hold ties.
func churnStream(rng *rand.Rand, n, live int) []dcs.KeyDelta {
	stream := make([]dcs.KeyDelta, 0, n)
	var inFlight []uint64
	for len(stream) < n {
		key := hashing.PairKey(rng.Uint32(), uint32(rng.Intn(40)))
		stream = append(stream, dcs.KeyDelta{Key: key, Delta: 1})
		inFlight = append(inFlight, key)
		if len(inFlight) > live {
			i := rng.Intn(len(inFlight))
			stream = append(stream, dcs.KeyDelta{Key: inFlight[i], Delta: -1})
			inFlight[i] = inFlight[len(inFlight)-1]
			inFlight = inFlight[:len(inFlight)-1]
		}
	}
	return stream
}

// illFormedStream breaks the ±1 discipline on purpose: deletes of pairs
// never inserted, deltas of magnitude up to 5, and zero deltas.
func illFormedStream(rng *rand.Rand, n int) []dcs.KeyDelta {
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = hashing.PairKey(rng.Uint32(), uint32(rng.Intn(20)))
	}
	stream := make([]dcs.KeyDelta, n)
	for i := range stream {
		stream[i] = dcs.KeyDelta{Key: keys[rng.Intn(len(keys))], Delta: int64(rng.Intn(11) - 4)}
	}
	return stream
}

// locatedConfigs are the sketch shapes the located-path comparisons run
// over: one, three and four tables, no fingerprint counter, tiny sketches
// in which nearly every bucket is a collision, and a sample target no
// stream here reaches, so that the tracking floor never leaves level 0.
var locatedConfigs = []dcs.Config{
	{Tables: 1, Levels: 32, Seed: 3},
	{Tables: 3, Levels: 32, Seed: 4},
	{Tables: 4, Levels: 32, Seed: 5},
	{Levels: 32, Seed: 6, DisableFingerprint: true},
	{Tables: 2, Buckets: 4, Levels: 4, Seed: 7},
	{Tables: 3, Buckets: 2, Levels: 3, Seed: 8, DisableFingerprint: true},
	{Tables: 3, Levels: 32, Seed: 9, SampleTarget: 1 << 20},
}

// floorMoves returns how many times s's tracking floor has moved.
func floorMoves(s *Sketch) uint64 { return s.FloorRaises() + s.FloorLowers() }

// compareLocatedPaths feeds stream through the four ways to reach the
// tracking state: UpdateLocatedBatch on batches located by a Locator of an
// equal config (not the sketch's own), UpdateBatch, scalar UpdateKey, and
// Rebuild from the counters the located path left. chunk gives each batch's
// length in turn. The three incremental paths must agree on the counters.
// They end their batches at different records, so their tracking floors
// move at different records and they decode different buckets: their
// decode statistics must agree only while no floor has moved. Every path
// must hold exactly what a recount of the counters gives at the levels at
// or above its floor and nothing below it, the same state as every other
// path at the levels both track, and identical query answers.
func compareLocatedPaths(cfg dcs.Config, stream []dcs.KeyDelta, chunk func() int) error {
	mk := func() *Sketch {
		t, err := New(cfg)
		if err != nil {
			panic(err)
		}
		return t
	}
	located, batched, scalar := mk(), mk(), mk()
	loc := mk().Base().Locator()
	var lb dcs.Located
	for off := 0; off < len(stream); {
		n := min(chunk(), len(stream)-off)
		part := stream[off : off+n]
		off += n
		loc.LocateBatch(&lb, part)
		located.UpdateLocatedBatch(&lb)
		batched.UpdateBatch(part)
		for _, u := range part {
			scalar.UpdateKey(u.Key, u.Delta)
		}
	}
	blob, err := located.MarshalBinary()
	if err != nil {
		return err
	}
	rebuilt, err := UnmarshalBinary(blob)
	if err != nil {
		return err
	}
	for _, other := range []*Sketch{batched, scalar} {
		ob, err := other.MarshalBinary()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ob, blob) {
			return fmt.Errorf("counters differ from the located path's")
		}
		if floorMoves(other) > 0 || floorMoves(located) > 0 {
			continue
		}
		if got, want := other.Base().QueryStats(), located.Base().QueryStats(); got != want {
			return fmt.Errorf("decode statistics %+v, located path %+v", got, want)
		}
	}
	paths := map[string]*Sketch{"located": located, "UpdateBatch": batched, "UpdateKey": scalar, "Rebuild": rebuilt}
	for name, sk := range paths {
		if err := recountTracking(sk); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	for name, other := range paths {
		if other == located {
			continue
		}
		if err := sameTracking(located, other); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	// The queries may have lowered floors; the levels they tracked must
	// match the counters too.
	for name, sk := range paths {
		if err := recountTracking(sk); err != nil {
			return fmt.Errorf("%s after queries: %v", name, err)
		}
	}
	return nil
}

// heapFreqs returns a heap's entries as a destination -> frequency map.
func heapFreqs(h *iheap.Heap) map[uint32]int64 {
	m := make(map[uint32]int64, h.Len())
	for _, e := range h.Snapshot() {
		m[e.Key] = e.Priority
	}
	return m
}

// recountTracking reports the first level at or above s's tracking floor
// whose singleton set or heap frequencies differ from a recount of the
// counters, or the first level below the floor that holds any tracking
// state.
func recountTracking(s *Sketch) error {
	cfg := s.Config()
	freq := map[uint32]int64{}
	for level := cfg.Levels - 1; level >= 0; level-- {
		occ := map[uint64]uint8{}
		for j := 0; j < cfg.Tables; j++ {
			for b := 0; b < cfg.Buckets; b++ {
				if key, _, ok := s.base.DecodeBucket(level, j, b); ok {
					occ[key]++
				}
			}
		}
		for key := range occ {
			freq[hashing.PairDest(key)]++
		}
		if level < s.floor {
			if n, h := len(s.singles[level]), s.heaps[level].Len(); n != 0 || h != 0 {
				return fmt.Errorf("level %d, below the floor %d, holds %d singletons and %d heap entries", level, s.floor, n, h)
			}
			continue
		}
		if !reflect.DeepEqual(s.singles[level], occ) {
			return fmt.Errorf("singletons at level %d (floor %d): %v, counters say %v", level, s.floor, s.singles[level], occ)
		}
		if got := heapFreqs(s.heaps[level]); !reflect.DeepEqual(got, freq) {
			return fmt.Errorf("heap frequencies at level %d (floor %d): %v, counters say %v", level, s.floor, got, freq)
		}
	}
	return nil
}

// sameTracking reports the first difference between two sketches' tracking
// states at the levels both track, or between their query answers.
func sameTracking(a, b *Sketch) error {
	for level := max(a.floor, b.floor); level < len(a.singles); level++ {
		if !reflect.DeepEqual(a.singles[level], b.singles[level]) {
			return fmt.Errorf("singletons at level %d: %v, want %v", level, b.singles[level], a.singles[level])
		}
		fa := heapFreqs(a.heaps[level])
		fb := heapFreqs(b.heaps[level])
		if !reflect.DeepEqual(fa, fb) {
			return fmt.Errorf("heap frequencies at level %d: %v, want %v", level, fb, fa)
		}
	}
	for _, k := range []int{1, 5, 10, 100} {
		if got, want := b.TopK(k), a.TopK(k); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("TopK(%d) = %v, want %v", k, got, want)
		}
	}
	for _, tau := range []int64{1, 2, 64} {
		if got, want := b.Threshold(tau), a.Threshold(tau); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Threshold(%d) = %v, want %v", tau, got, want)
		}
	}
	if got, want := b.EstimateDistinctPairs(), a.EstimateDistinctPairs(); got != want {
		return fmt.Errorf("EstimateDistinctPairs = %d, want %d", got, want)
	}
	return nil
}

// TestLocatedPathsAgree runs the four-way comparison over seeded
// well-formed churn and ill-formed streams on every located config.
func TestLocatedPathsAgree(t *testing.T) {
	for ci, cfg := range locatedConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			chunk := func() int { return 1 + rng.Intn(300) }
			for _, tc := range []struct {
				name   string
				stream []dcs.KeyDelta
			}{
				{"churn", churnStream(rng, 5000, 1500)},
				{"ill-formed", illFormedStream(rng, 3000)},
			} {
				if debugAssertions && tc.name == "ill-formed" {
					// The dcsdebug assertions reject ill-formed deletes
					// by design (they panic on negative counters).
					continue
				}
				if err := compareLocatedPaths(cfg, tc.stream, chunk); err != nil {
					t.Fatalf("%+v seed %d %s: %v", cfg, seed, tc.name, err)
				}
			}
		}
	}
}

// TestLocatedBatchRejectsForeignConfig checks a batch located for another
// configuration panics instead of corrupting the counters.
func TestLocatedBatchRejectsForeignConfig(t *testing.T) {
	sk, err := New(dcs.Config{Seed: 1, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(dcs.Config{Seed: 2, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	var lb dcs.Located
	other.Base().Locator().LocateBatch(&lb, []dcs.KeyDelta{{Key: 42, Delta: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateLocatedBatch accepted a batch located with another seed")
		}
		if sk.Updates() != 0 {
			t.Fatalf("the rejected batch applied %d updates", sk.Updates())
		}
	}()
	sk.UpdateLocatedBatch(&lb)
}

// FuzzLocatedBatch is the differential fuzz form of TestLocatedPathsAgree:
// the input picks a small config, the batch lengths, and a stream over 256
// keys with arbitrary deltas.
func FuzzLocatedBatch(f *testing.F) {
	f.Add([]byte{0, 7, 1, 1, 2, 1, 1, 255, 3, 2, 4})
	f.Add([]byte{5, 1, 9, 1, 9, 255, 9, 2, 9, 254, 200, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		small := []dcs.Config{
			{Tables: 1, Buckets: 8, Levels: 6, Seed: 11},
			{Tables: 3, Buckets: 4, Levels: 5, Seed: 12},
			{Tables: 4, Buckets: 16, Levels: 8, Seed: 13},
			{Tables: 3, Buckets: 2, Levels: 3, Seed: 14, DisableFingerprint: true},
		}
		cfg := small[int(data[0])%len(small)]
		maxChunk := 1 + int(data[1])%64
		data = data[2:]
		stream := make([]dcs.KeyDelta, 0, len(data)/2)
		net := map[uint64]int64{}
		for i := 0; i+1 < len(data); i += 2 {
			u := dcs.KeyDelta{Key: hashing.Mix64(uint64(data[i])), Delta: int64(int8(data[i+1]))}
			if debugAssertions && net[u.Key]+u.Delta < 0 {
				// dcsdebug builds panic on deletes past zero by design.
				continue
			}
			net[u.Key] += u.Delta
			stream = append(stream, u)
		}
		next := 0
		chunk := func() int {
			next = next%maxChunk + 1
			return next
		}
		if err := compareLocatedPaths(cfg, stream, chunk); err != nil {
			t.Fatal(err)
		}
	})
}
