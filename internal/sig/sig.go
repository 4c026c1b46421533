// Package sig implements the count signatures stored in every second-level
// hash bucket of a Distinct-Count Sketch (paper §3).
//
// A signature for the 64-bit pair domain is a set of counters
//
//	total | bit_1 .. bit_64 | fingerprint?
//
// where total is the net number of pair occurrences that hashed into the
// bucket, bit_j is the net number of occurrences whose key has bit j set, and
// the optional fingerprint counter holds the net sum of count·fp(key) for a
// random fingerprint function fp. Because every counter update is a signed
// add, the structure is impervious to deletions: the signature after a stream
// of inserts and matching deletes is identical to one that never saw the
// deleted items.
//
// Storage form. The total and the fingerprint are exact int64 words; the 64
// bit counters are int32 lanes that add modulo 2^32 (package vec). For a
// well-formed stream every bit counter lies in [0, total], because it sums
// the counts of a sub-multiset of the bucket's pairs, so whenever the total
// is below 2^31 each lane equals its true count: additions wrap, but the
// value they wrap to is still exact modulo 2^32, and every update, merge and
// subtraction stays linear. A bucket whose total reaches 2^31 is Saturated:
// its lanes cannot be read, and it decodes again, exactly, once deletes
// bring the total back below 2^31.
//
// A bucket is decodable as a singleton when every bit counter equals either 0
// or the total (paper's ReturnSingleton, Fig. 4). With deletions in the
// stream, rare "false singletons" are possible — a mixed bucket whose residual
// counters happen to mimic a single key. The fingerprint counter detects
// those with probability 1 - 2^-63: the caller checks that the fingerprint
// counter equals total·fp(decodedKey).
package sig

import "math"

// KeyBits is the width of the sketched pair domain: source and destination
// are 32-bit IPv4 addresses, so pairs live in [2^64] and signatures carry
// 2·log2(m) = 64 bit-location counters.
const KeyBits = 64

// Layout describes the counters of one count signature.
type Layout struct {
	// Fingerprint indicates whether the trailing checksum counter is
	// present. It is an extension over the paper (see package comment);
	// disabling it reproduces the paper's structure exactly.
	Fingerprint bool
}

// Width returns the number of counters in one signature: the total, the
// KeyBits bit counters and the fingerprint when present. It is the
// signature's length in the sketch encoding, which writes every counter as
// one value.
func (l Layout) Width() int {
	w := 1 + KeyBits
	if l.Fingerprint {
		w++
	}
	return w
}

// State classifies the decoded content of a signature.
type State int

const (
	// Empty means no net items are present in the bucket.
	Empty State = iota + 1
	// Singleton means the counters are consistent with exactly one
	// distinct key (returned alongside its net count).
	Singleton
	// Collision means at least two distinct keys are provably present.
	Collision
	// Saturated means the total is 2^31 or more, so the int32 bit lanes
	// no longer hold their true counts; the bucket decodes again once its
	// total falls below 2^31.
	Saturated
)

// DecodeLanes inspects a signature in its storage form — the exact total
// and the 64 int32 bit lanes — and, when it is consistent with a single
// distinct key, reconstructs that key and its net count.
//
// It performs the structural check only (bit counters ∈ {0, total}); the
// fingerprint verification, which needs the hash function, is the caller's.
// A Singleton result with count <= 0 is impossible for well-formed streams
// (deletes never exceed inserts per pair) and is reported as Collision so
// corrupted streams cannot yield phantom samples.
func DecodeLanes(total int64, bits *[KeyBits]int32) (key uint64, count int64, state State) {
	switch {
	case total == 0:
		// All-zero bit counters with zero total is the empty bucket; a
		// zero total with nonzero bit counters is a net-negative
		// artifact of a corrupted stream — treat as collision.
		if *bits != [KeyBits]int32{} {
			return 0, 0, Collision
		}
		return 0, 0, Empty
	case total < 0:
		return 0, 0, Collision
	case total > math.MaxInt32:
		return 0, 0, Saturated
	}
	t := int32(total)
	for j, c := range bits {
		switch c {
		case t:
			key |= 1 << uint(j)
		case 0:
			// bit j is 0 in the candidate key
		default:
			return 0, 0, Collision
		}
	}
	return key, total, Singleton
}
