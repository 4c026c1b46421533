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

	"dcsketch/internal/sig"
)

// debugAssertions enables the runtime invariant checks in this build.
const debugAssertions = true

// assertSig panics when the signature at (level, table, bucket) violates the
// well-formed-stream invariants.
func (s *Sketch) assertSig(level, table, bucket int, op string) {
	sg := s.bucketSig(level, table, bucket)
	total := sg[0]
	if total < 0 {
		panic(fmt.Sprintf("dcsdebug: %s drove bucket (%d,%d,%d) total negative (%d); deletes exceed inserts",
			op, level, table, bucket, total))
	}
	for j := 1; j <= sig.KeyBits; j++ {
		if sg[j] < 0 || sg[j] > total {
			panic(fmt.Sprintf("dcsdebug: %s left bucket (%d,%d,%d) bit counter %d = %d outside [0, total=%d]",
				op, level, table, bucket, j-1, sg[j], total))
		}
	}
}

// assertAllBuckets checks every signature in the sketch.
func (s *Sketch) assertAllBuckets(op string) {
	for level := 0; level < s.cfg.Levels; level++ {
		for j := 0; j < s.cfg.Tables; j++ {
			for b := 0; b < s.cfg.Buckets; b++ {
				s.assertSig(level, j, b, op)
			}
		}
	}
}
