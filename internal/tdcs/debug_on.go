//go:build dcsdebug

// Runtime invariant assertions for the tracking state, enabled by
// `go test -tags dcsdebug`. The tracking structures (singleton sets and
// per-level heaps) are a derived view of the counter array at the levels
// at or above the tracking floor, and empty below it; these checks
// recompute that view directly from the counters and panic on any
// divergence. Updates get a cheap affected-key check; Merge, Rebuild and
// every floor move get the full O(sketch size) verification.
package tdcs

import (
	"fmt"

	"dcsketch/internal/hashing"
)

// debugAssertions enables the runtime invariant checks in this build.
const debugAssertions = true

// countOccurrences recounts in how many second-level tables key is the
// verified singleton of its bucket at the given level.
func (t *Sketch) countOccurrences(level int, key uint64) uint8 {
	cfg := t.base.Config()
	var n uint8
	for j := 0; j < cfg.Tables; j++ {
		if k, _, ok := t.base.DecodeBucket(level, j, t.base.BucketOf(j, key)); ok && k == key {
			n++
		}
	}
	return n
}

// assertUntracked panics when a level below the floor holds tracking state.
func (t *Sketch) assertUntracked(level int, op string) {
	if len(t.singles[level]) != 0 || t.heaps[level].Len() != 0 {
		panic(fmt.Sprintf("dcsdebug: %s left %d singletons and %d heap entries at level %d, below the tracking floor %d",
			op, len(t.singles[level]), t.heaps[level].Len(), level, t.floor))
	}
}

// assertKeyTracking panics when key's tracked singleton multiplicity at
// level disagrees with a direct recount of its buckets, or, below the
// floor, when the level holds any tracking state.
func (t *Sketch) assertKeyTracking(level int, key uint64, op string) {
	if level < t.floor {
		t.assertUntracked(level, op)
		return
	}
	want := t.countOccurrences(level, key)
	got := t.singles[level][key]
	if got != want {
		panic(fmt.Sprintf("dcsdebug: %s left key %#x tracked as %d-table singleton at level %d, counters say %d",
			op, key, got, level, want))
	}
}

// assertTracking recomputes the tracking state of every level at or above
// the floor from the counter array and panics on the first divergence in a
// singleton set or heap frequency, or on any state below the floor.
func (t *Sketch) assertTracking(op string) {
	cfg := t.base.Config()
	if t.floor < 0 || t.floor > cfg.Levels {
		panic(fmt.Sprintf("dcsdebug: %s left the tracking floor at %d, outside [0, %d]", op, t.floor, cfg.Levels))
	}
	freq := map[uint32]int64{}
	for level := cfg.Levels - 1; level >= 0; level-- {
		if level < t.floor {
			t.assertUntracked(level, op)
			continue
		}
		occ := map[uint64]uint8{}
		for j := 0; j < cfg.Tables; j++ {
			for b := 0; b < cfg.Buckets; b++ {
				if key, _, ok := t.base.DecodeBucket(level, j, b); ok {
					occ[key]++
				}
			}
		}
		if len(occ) != len(t.singles[level]) {
			panic(fmt.Sprintf("dcsdebug: %s left %d tracked singletons at level %d, counters say %d",
				op, len(t.singles[level]), level, len(occ)))
		}
		for key, want := range occ {
			if got := t.singles[level][key]; got != want {
				panic(fmt.Sprintf("dcsdebug: %s left key %#x tracked as %d-table singleton at level %d, counters say %d",
					op, key, got, level, want))
			}
		}
		// heaps[level] must count the sample destinations from levels
		// >= level; fold this level's keys in and compare.
		for key := range occ {
			freq[hashing.PairDest(key)]++
		}
		if t.heaps[level].Len() != len(freq) {
			panic(fmt.Sprintf("dcsdebug: %s left heap at level %d with %d destinations, sample says %d",
				op, level, t.heaps[level].Len(), len(freq)))
		}
		for dest, want := range freq {
			if got, _ := t.heaps[level].Get(dest); got != want {
				panic(fmt.Sprintf("dcsdebug: %s left dest %d with heap frequency %d at level %d, sample says %d",
					op, dest, got, level, want))
			}
		}
	}
}
