//go:build dcsdebug

// Runtime invariant assertions, enabled by `go test -tags dcsdebug`. For a
// well-formed stream — per-pair deletes never exceeding inserts, the
// discipline the detection application guarantees (a connection is
// legitimized at most once per SYN) — every count signature must satisfy
//
//	0 <= bit counter <= total    and    total >= 0,
//
// because each bit-location counter sums the counts of a sub-multiset of the
// bucket's pairs. A violation means either a caller broke the ±1 update
// discipline or a sketch operation corrupted the linear structure; both are
// bugs worth a loud panic in a debug build. Mutation operations (deletes,
// Merge, Subtract) are asserted; query paths are not, so hostile
// deserialized sketches (fuzz inputs) remain queryable without tripping
// assertions that only well-formed streams promise.
package dcs

import (
	"fmt"
	"math"
)

// debugAssertions enables the runtime invariant checks in this build.
const debugAssertions = true

// assertSig panics when the signature at (level, table, bucket) violates the
// well-formed-stream invariants. A saturated bucket (total 2^31 or more) is
// checked on its total only: its int32 lanes hold the true counts modulo
// 2^32, which is all the invariants promise there.
func (s *Sketch) assertSig(level, table, bucket int, op string) {
	if level >= s.top {
		return
	}
	lv := &s.levels[level]
	i := table*s.cfg.Buckets + bucket
	total := lv.words[i*s.nwords]
	if total < 0 {
		panic(fmt.Sprintf("dcsdebug: %s drove bucket (%d,%d,%d) total negative (%d); deletes exceed inserts",
			op, level, table, bucket, total))
	}
	if total > math.MaxInt32 {
		return
	}
	for j, c := range lanes(lv, i) {
		if c < 0 || int64(c) > total {
			panic(fmt.Sprintf("dcsdebug: %s left bucket (%d,%d,%d) bit counter %d = %d outside [0, total=%d]",
				op, level, table, bucket, j, c, total))
		}
	}
}

// assertAllBuckets checks every signature in the sketch. Levels without a
// slab hold only zeros and need no check.
func (s *Sketch) assertAllBuckets(op string) {
	for level := 0; level < s.top; level++ {
		for j := 0; j < s.cfg.Tables; j++ {
			for b := 0; b < s.cfg.Buckets; b++ {
				s.assertSig(level, j, b, op)
			}
		}
	}
}
