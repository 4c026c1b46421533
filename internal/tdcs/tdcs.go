// Package tdcs implements the Tracking Distinct-Count Sketch (paper §5):
// a basic Distinct-Count Sketch augmented with incrementally maintained
// distinct-sample state so that top-k queries run in guaranteed logarithmic
// time instead of rescanning the whole counter array.
//
// Per first-level bucket b the tracking state holds (Fig. 5):
//
//   - singletons(b): the current set of verified singleton pairs in bucket
//     b's second-level tables, each with the number of tables in which it
//     appears as a singleton;
//   - numSingletons(b) = |singletons(b)|;
//   - topDestHeap(b): a max-heap over destinations keyed by their occurrence
//     frequency f^s_v in the distinct sample collected from levels >= b.
//
// Procedure UpdateTracking (Fig. 6) is realized as a before/after diff of the
// affected second-level buckets, which uniformly covers every transition the
// paper enumerates (empty->singleton, singleton->collision, and the symmetric
// delete transitions) as well as the fingerprint-verified edge cases. Updates
// run in two phases over a located batch (dcs.Located): the hash phase,
// which needs no sketch state and may run on another goroutine, and the
// apply loop, UpdateLocatedBatch, behind UpdateKey and UpdateBatch alike.
// Procedure TrackTopk (Fig. 7) reads the cumulative singleton counters to
// pick the sample level b and answers from that level's heap in
// O(k·log k).
//
// Only the levels a query can read carry tracking state. The sketch keeps
// singleton sets and heaps for the levels at or above a tracking floor,
// which trails b by floorSlack levels. A record below the floor is a plain
// counter add (dcs.Sketch.AddLocated): no decode, no heap work. At 20k live
// pairs b is 6–7 and the floor 4–5, so that is 94–97% of the records. The
// floor rises at the end of a batch, once the tracked levels alone reach
// the sample target at a level more than floorSlack above it; it falls on
// the query path, when the level descent passes below it, by rebuilding
// each level it passes from the counters. Between moves the state at the tracked levels is what
// Rebuild would compute from the same counters, and every query answer is
// the same as under full tracking.
package tdcs

import (
	"fmt"
	"sort"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/iheap"
)

// Sketch is a Tracking Distinct-Count Sketch. Like the basic sketch it is
// not safe for concurrent mutation.
type Sketch struct {
	base *dcs.Sketch

	// singles[b] maps each verified singleton pair in level b to the
	// number of second-level tables (1..r) where it is currently a
	// singleton. Its key set is the level's contribution to the distinct
	// sample; numSingletons(b) = len(singles[b]).
	singles []map[uint64]uint8

	// heaps[b] is topDestHeap(b): destination -> f^s_v over the sample
	// from levels >= b.
	heaps []*iheap.Heap

	// floor is the tracking floor: singles[l] and heaps[l] hold the state
	// above only for l >= floor, and are empty below it. floorRaises and
	// floorLowers count its moves.
	floor       int
	floorRaises uint64
	floorLowers uint64

	// located is UpdateBatch's scratch: each chunk of the batch is located
	// into it, then applied. It grows to batchChunk records once.
	located dcs.Located //lint:scratch

	// topScratch holds the heap entries of the last TopK answer, and
	// estScratch the converted estimates handed back to the caller; both are
	// reused across queries.
	topScratch []iheap.Entry  //lint:scratch
	estScratch []dcs.Estimate //lint:scratch

	// queries counts tracked queries (TopK, Threshold,
	// EstimateDistinctPairs, Estimate); rebuilds counts tracking-state
	// reconstructions. Plain single-writer words under the same contract
	// as dcs.QueryStats.
	queries  uint64
	rebuilds uint64
}

// New builds an empty tracking sketch. The Config semantics are identical to
// the basic sketch's.
func New(cfg dcs.Config) (*Sketch, error) {
	base, err := dcs.New(cfg)
	if err != nil {
		return nil, err
	}
	return fromBase(base), nil
}

// FromBase adopts an existing basic sketch and builds the tracking state
// from its counters. The returned sketch owns base; the caller must not
// mutate it directly afterwards. This is how a fold over basic shard
// sketches is promoted to a queryable tracking sketch with one Rebuild
// instead of one per merge.
func FromBase(base *dcs.Sketch) *Sketch {
	t := fromBase(base)
	t.Rebuild()
	return t
}

func fromBase(base *dcs.Sketch) *Sketch {
	cfg := base.Config()
	t := &Sketch{
		base:    base,
		singles: make([]map[uint64]uint8, cfg.Levels),
		heaps:   make([]*iheap.Heap, cfg.Levels),
	}
	for i := range t.singles {
		t.singles[i] = make(map[uint64]uint8)
		t.heaps[i] = iheap.New(16)
	}
	return t
}

// Config returns the sketch's effective configuration.
func (t *Sketch) Config() dcs.Config { return t.base.Config() }

// Updates returns the number of stream updates processed.
func (t *Sketch) Updates() uint64 { return t.base.Updates() }

// Base exposes the underlying basic sketch (shared counter array). Callers
// must not mutate it directly; doing so desynchronizes the tracking state.
func (t *Sketch) Base() *dcs.Sketch { return t.base }

// SizeBytes returns the approximate memory footprint: the allocated counter
// slabs plus the tracking structures. The paper observes the tracking
// overhead is a small constant factor (~2x) over the basic sketch.
func (t *Sketch) SizeBytes() int {
	n := t.base.SizeBytes()
	for b := range t.singles {
		// ~24 bytes per map entry (key+count+bucket overhead) and 16
		// bytes per heap entry plus the position index.
		n += len(t.singles[b])*24 + t.heaps[b].Len()*28
	}
	return n
}

// Update processes one flow update for the (src, dst) pair (procedure
// UpdateTracking, Fig. 6).
func (t *Sketch) Update(src, dst uint32, delta int64) {
	t.UpdateKey(hashing.PairKey(src, dst), delta)
}

// UpdateKey is Update on a pre-packed 64-bit pair key: a one-record batch.
//
//lint:allocfree
//lint:inline
func (t *Sketch) UpdateKey(key uint64, delta int64) {
	one := [1]dcs.KeyDelta{{Key: key, Delta: delta}}
	t.UpdateBatch(one[:])
}

// batchChunk is the number of records UpdateBatch locates before applying
// them, as in the basic sketch: the located chunk stays in L1 while the
// apply loop replays it.
const batchChunk = 128

// UpdateBatch applies a batch of flow updates (the bulk form of UpdateKey),
// maintaining the tracking state per element. Zero deltas are skipped; the
// batch slice may be reused by the caller afterwards.
//
//lint:allocfree
func (t *Sketch) UpdateBatch(batch []dcs.KeyDelta) {
	loc := t.base.Locator()
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), batchChunk)]
		batch = batch[len(chunk):]
		loc.LocateBatch(&t.located, chunk)
		t.UpdateLocatedBatch(&t.located)
	}
}

// UpdateLocatedBatch applies a batch located by a Locator of this sketch's
// configuration, record by record (procedure UpdateTracking, Fig. 6). A
// record at or above the tracking floor has each of its r buckets decoded,
// updated and decoded again, and the verified-singleton occupancy is
// diffed. Only the r buckets a key maps to can change, and any occupant of
// those buckets lives at the key's own level (decoding enforces it). The r
// buckets sit in different tables, so diffing them one table at a time
// yields exactly the transitions of decoding all r before and after the
// record. A record below the floor is added without a decode. While record
// i applies, the buckets of record i+dcs.PrefetchDistance load. At the end
// of the batch the floor rises if the sample level allows it. It panics if
// lb was located for another configuration.
//
//lint:allocfree
//lint:bce
func (t *Sketch) UpdateLocatedBatch(lb *dcs.Located) {
	base := t.base
	base.CheckLocated(lb)
	r := base.Config().Tables
	n := lb.Len()
	for i := 0; i < min(n, dcs.PrefetchDistance); i++ {
		base.PrefetchLocated(lb, i)
	}
	for i := 0; i < n; i++ {
		if i+dcs.PrefetchDistance < n {
			base.PrefetchLocated(lb, i+dcs.PrefetchDistance)
		}
		level := lb.Level(i) //lint:bceok i < n = lb.Len(), and nothing in the loop resizes lb
		if level < t.floor {
			base.AddLocated(lb, i)
			if debugAssertions {
				t.assertKeyTracking(level, lb.Key(i), "UpdateKey")
			}
			continue
		}
		base.StartLocated(lb, i)
		for j := 0; j < r; j++ {
			before, after, beforeOK, afterOK := base.ApplyLocated(lb, i, j)
			if beforeOK == afterOK && before == after {
				continue
			}
			if beforeOK {
				t.decrSingleton(level, before)
			}
			if afterOK {
				t.incrSingleton(level, after)
			}
		}
		if debugAssertions {
			t.assertKeyTracking(level, lb.Key(i), "UpdateKey")
		}
	}
	b, _ := t.trackedLevel() //lint:bceok the descent indexes levels in [floor, LevelsAllocated), within the Levels-long singles
	t.raiseFloor(b)          //lint:bceok the raise indexes levels in [floor, b-floorSlack), below Levels
}

// incrSingleton records that key gained a singleton occurrence in one
// second-level table of the given level; on its first occurrence the key
// joins the distinct sample and its destination's frequency is bumped in
// every tracked heap at levels <= level (Fig. 6, steps 15-23).
func (t *Sketch) incrSingleton(level int, key uint64) {
	c := t.singles[level][key]
	t.singles[level][key] = c + 1 //lint:allocok singleton-set growth is amortized across the stream
	if c != 0 {
		return
	}
	dest := hashing.PairDest(key)
	for l := level; l >= t.floor; l-- {
		t.heaps[l].Adjust(dest, 1)
	}
}

// decrSingleton is the inverse of incrSingleton (Fig. 6, steps 4-13).
func (t *Sketch) decrSingleton(level int, key uint64) {
	c, ok := t.singles[level][key]
	if !ok {
		// Cannot happen for well-formed tracking state; tolerate it
		// rather than corrupting heap frequencies.
		return
	}
	if c > 1 {
		t.singles[level][key] = c - 1 //lint:allocok overwrite of an existing key; no bucket growth
		return
	}
	delete(t.singles[level], key)
	dest := hashing.PairDest(key)
	for l := level; l >= t.floor; l-- {
		t.heaps[l].Adjust(dest, -1)
	}
}

// NumSingletons returns numSingletons(level), the size of the distinct
// sample contributed by one first-level bucket. It is 0 below the tracking
// floor, where the sketch keeps no singleton sets.
func (t *Sketch) NumSingletons(level int) int { return len(t.singles[level]) }

// floorSlack is how far the tracking floor trails the sample level b when
// it moves: a raise or a lower leaves it at b−floorSlack (or 0). The sample
// level can then fall floorSlack levels before a query has to rebuild a
// level from the counters; when it rises, the floor follows at the end of
// the batch.
const floorSlack = 2

// trackedLevel runs the level-selection loop of TrackTopk (Fig. 7, steps
// 1-7) over the tracked levels: it descends from the top allocated level to
// the floor, accumulating numSingletons, and returns the level b at which
// the sample reaches the target. When the tracked levels alone fall short,
// b is -1 and size is the sample they hold.
func (t *Sketch) trackedLevel() (b, size int) {
	target := t.base.Config().SampleTarget
	for b = t.base.LevelsAllocated() - 1; b >= t.floor; b-- {
		size += len(t.singles[b])
		if size >= target {
			return b, size
		}
	}
	return -1, size
}

// sampleLevel is the level-selection loop of TrackTopk over every level.
// When the descent needs levels below the floor, it lowers the floor
// through them.
func (t *Sketch) sampleLevel() int {
	b, size := t.trackedLevel()
	if b >= 0 {
		t.raiseFloor(b)
		return b
	}
	if t.floor == 0 {
		return 0
	}
	t.floorLowers++
	b = t.lowerFloor(size)
	if debugAssertions {
		t.assertTracking("floor lower")
	}
	return b
}

// raiseFloor moves the floor up to b−floorSlack when that is above it,
// clearing the levels it leaves in place: the maps and heaps keep their
// capacity, so the update path that raises it does not allocate.
func (t *Sketch) raiseFloor(b int) {
	f := b - floorSlack
	if f <= t.floor {
		return
	}
	for l := t.floor; l < f; l++ {
		clear(t.singles[l])
		t.heaps[l].Reset()
	}
	t.floor = f
	t.floorRaises++
	if debugAssertions {
		t.assertTracking("floor raise")
	}
}

// lowerFloor continues a level descent that the tracked levels, holding
// size singletons, could not finish. It tracks the levels below the floor
// one at a time, adding each to the sample, until the sample reaches the
// target at some level b; it then tracks floorSlack more levels (never below
// 0) and leaves the floor at the lowest level it tracked. It returns b, or
// 0 when the whole sketch holds fewer singletons than the target.
func (t *Sketch) lowerFloor(size int) int {
	target := t.base.Config().SampleTarget
	b := -1
	for t.floor > max(b-floorSlack, 0) {
		t.floor--
		t.trackLevel(t.floor)
		if size += len(t.singles[t.floor]); b < 0 && size >= target {
			b = t.floor
		}
	}
	return max(b, 0)
}

// trackLevel builds level l's tracking state from the counters: the
// verified singletons of its r·s buckets, and heaps[l] as heaps[l+1] plus
// their destinations. Every level above l must be tracked. The copy may
// allocate, so only the query path and Rebuild call it.
func (t *Sketch) trackLevel(l int) {
	cfg := t.base.Config()
	h := t.heaps[l]
	if l+1 < len(t.heaps) {
		h.CopyFrom(t.heaps[l+1])
	} else {
		h.Reset()
	}
	singles := t.singles[l]
	for j := 0; j < cfg.Tables; j++ {
		for bkt := 0; bkt < cfg.Buckets; bkt++ {
			key, _, ok := t.base.DecodeBucket(l, j, bkt)
			if !ok {
				continue
			}
			c := singles[key]
			singles[key] = c + 1
			if c == 0 {
				h.Adjust(hashing.PairDest(key), 1)
			}
		}
	}
}

// TrackingFloor returns the lowest level that carries tracking state.
func (t *Sketch) TrackingFloor() int { return t.floor }

// FloorRaises returns how many times the tracking floor has risen.
func (t *Sketch) FloorRaises() uint64 { return t.floorRaises }

// FloorLowers returns how many queries have lowered the tracking floor.
func (t *Sketch) FloorLowers() uint64 { return t.floorLowers }

// TopK returns the approximate top-k destinations by distinct-source
// frequency (procedure TrackTopk, Fig. 7) in O(log m + k·log k) time. It
// may move the tracking floor: a query whose level descent passes below the
// floor first rebuilds the levels it needs from the counters.
//
// The returned slice is owned by the sketch and only valid until the next
// query; callers that retain it must copy (the public API layer does, via
// convertEstimates).
func (t *Sketch) TopK(k int) []dcs.Estimate {
	if k <= 0 {
		return nil
	}
	t.queries++
	b := t.sampleLevel()
	scale := int64(1) << uint(b)
	t.topScratch = t.heaps[b].AppendTopK(t.topScratch[:0], k)
	out := t.estScratch[:0]
	for _, e := range t.topScratch {
		out = append(out, dcs.Estimate{Dest: e.Key, F: e.Priority * scale})
	}
	t.estScratch = out
	return out //lint:scratchok documented zero-copy view, valid until the next query
}

// Threshold returns every destination whose estimated frequency is at least
// tau, sorted by descending frequency then ascending address (§2 fn. 3).
func (t *Sketch) Threshold(tau int64) []dcs.Estimate {
	t.queries++
	b := t.sampleLevel()
	scale := int64(1) << uint(b)
	var out []dcs.Estimate
	for _, e := range t.heaps[b].Snapshot() {
		if f := e.Priority * scale; f >= tau {
			out = append(out, dcs.Estimate{Dest: e.Key, F: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F != out[j].F {
			return out[i].F > out[j].F
		}
		return out[i].Dest < out[j].Dest
	})
	return out
}

// EstimateDistinctPairs estimates U from the tracked sample: 2^b times the
// sample size at the chosen level.
func (t *Sketch) EstimateDistinctPairs() int64 {
	t.queries++
	b := t.sampleLevel()
	return int64(t.sampleSize(b)) << uint(b)
}

// Estimate returns dest's estimated distinct-source frequency, the point
// form of TopK: the number of sampled pairs at levels >= the sample level b
// that have dest as their destination, scaled by 2^b. It is 0 when no
// sampled pair has that destination. It may move the tracking floor, as
// TopK may.
func (t *Sketch) Estimate(dest uint32) int64 {
	t.queries++
	b := t.sampleLevel()
	f, _ := t.heaps[b].Get(dest)
	return f << uint(b)
}

// SampleKeys returns the pair keys in the tracked distinct sample from
// levels >= the chosen sample level, in unspecified order.
func (t *Sketch) SampleKeys() []uint64 {
	b := t.sampleLevel()
	var out []uint64
	for l := b; l < len(t.singles); l++ {
		for key := range t.singles[l] {
			out = append(out, key)
		}
	}
	return out
}

// SampleLevel returns the first-level bucket TrackTopk would answer from
// right now — the live counterpart of dcs.QueryStats.SampleLevel.
func (t *Sketch) SampleLevel() int { return t.sampleLevel() }

// SampleSize returns the size of the tracked distinct sample at the current
// sample level (the singletons at levels >= SampleLevel).
func (t *Sketch) SampleSize() int { return t.sampleSize(t.sampleLevel()) }

// sampleSize returns the number of tracked singletons at levels >= b.
func (t *Sketch) sampleSize(b int) int {
	n := 0
	for l := b; l < t.base.LevelsAllocated(); l++ {
		n += len(t.singles[l])
	}
	return n
}

// Rebuilds returns the number of tracking-state reconstructions (Merge,
// FromBase adoption, deserialization).
func (t *Sketch) Rebuilds() uint64 { return t.rebuilds }

// QueryStats returns the underlying sketch's decode-outcome counters with
// the tracking layer's own query count folded in and the sample shape
// replaced by the live tracking-state view (TrackTopk answers from the
// incrementally maintained sample, not from a sampling pass).
func (t *Sketch) QueryStats() dcs.QueryStats {
	b := t.sampleLevel()
	qs := t.base.QueryStats()
	qs.Queries += t.queries
	qs.SampleLevel = b
	qs.SampleSize = t.sampleSize(b)
	return qs
}

// Merge adds other's stream into t (both counter arrays and tracking state).
// The tracking structures are not linear, so they are rebuilt from the merged
// counters; merging is therefore O(sketch size), which is the intended
// deployment model (rare merges at a collector, cheap updates at the edge).
func (t *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return dcs.ErrIncompatible
	}
	if err := t.base.Merge(other.base); err != nil {
		return err
	}
	t.Rebuild()
	return nil
}

// Rebuild reconstructs the tracking state (singleton sets and heaps) from
// the counters. It is used after Merge and deserialization. It tracks the
// levels a query descent reaches from the top allocated level, plus
// floorSlack more, and leaves the floor at the lowest of them; the result
// is a function of the counters alone. Only the allocated levels can hold
// a singleton.
func (t *Sketch) Rebuild() {
	t.rebuilds++
	t.clearTracked()
	t.floor = t.base.LevelsAllocated()
	t.lowerFloor(0)
	if debugAssertions {
		t.assertTracking("Rebuild")
	}
}

// Reset clears the sketch to its freshly-constructed state, with the
// tracking floor back at 0.
func (t *Sketch) Reset() {
	t.base.Reset()
	t.clearTracked()
	t.floor = 0
}

// clearTracked empties the singleton sets and heaps of the tracked levels
// in place; the levels below the floor are empty already.
func (t *Sketch) clearTracked() {
	for l := t.floor; l < len(t.singles); l++ {
		clear(t.singles[l])
		t.heaps[l].Reset()
	}
}

// MarshalBinary encodes the sketch. Only the (linear) counter array is
// serialized; the tracking state is rebuilt on decode.
func (t *Sketch) MarshalBinary() ([]byte, error) {
	return t.base.MarshalBinary()
}

// UnmarshalBinary decodes a tracking sketch from either a tracking or a
// basic sketch encoding and rebuilds the tracking state.
func UnmarshalBinary(data []byte) (*Sketch, error) {
	base, err := dcs.UnmarshalBinary(data)
	if err != nil {
		return nil, fmt.Errorf("tdcs: %w", err)
	}
	t := fromBase(base)
	t.Rebuild()
	return t, nil
}
