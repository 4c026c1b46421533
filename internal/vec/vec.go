// Package vec provides the 64-lane masked-add primitives behind the
// Distinct-Count Sketch update kernel (internal/dcs).
//
// A count-signature update adds delta to bit-location counter j exactly when
// bit j of the pair key is set (paper §3, Fig. 2) — a masked 64-lane add
// into the bucket's bit counters. That operation is the measured hot spot of
// the Table-2 update cost (~80% of per-update cycles), and it vectorizes
// perfectly: the addend vector
//
//	add[j] = delta & -((key >> j) & 1)
//
// depends only on (key, delta), so it is built once per update and applied
// to each of the r second-level tables the key maps to with a plain lane-wise
// add. The lanes are int32 and add modulo 2^32: a bucket's 64 bit counters
// are 256 bytes, four cache lines, and a lane is exact whenever the bucket's
// (int64) total is below 2^31 (package dcs). On amd64 with AVX2 both steps
// run eight lanes per instruction; every other platform uses the portable
// loops below, which are semantically identical (the package test proves it
// lane-for-lane).
//
// The split into BuildMaskedAddends + AddInt32Lanes is deliberate: building
// the addends costs one pass of mask arithmetic, while applying them costs a
// pure load-add-store sweep, so the mask work is amortized across the r
// tables of one update (and across nothing else — the addends are scratch,
// valid until the next build).
package vec

// Lanes is the number of int32 lanes the kernels operate on: one per bit of
// the 64-bit pair-key domain (sig.KeyBits).
const Lanes = 64

// LaneBytes is the size of one bucket's bit counters, the lane block
// Prefetch covers: four 64-byte cache lines.
const LaneBytes = Lanes * 4

// Fast reports whether the lane kernels are backed by SIMD on this CPU.
// Query-only (telemetry, tests); both paths compute identical results.
func Fast() bool { return fastLanes }

// buildMaskedAddendsGeneric is the portable addend builder: add[j] = delta
// when bit j of key is set, else 0, branch-free.
//
//lint:allocfree
//lint:bce
//lint:inline
func buildMaskedAddendsGeneric(add *[Lanes]int32, key uint64, delta int32) {
	for j := 0; j < Lanes; j += 4 {
		k := key >> uint(j)
		add[j] = delta & -int32(k&1)
		add[j+1] = delta & -int32((k>>1)&1)
		add[j+2] = delta & -int32((k>>2)&1)
		add[j+3] = delta & -int32((k>>3)&1)
	}
}

// addInt32LanesGeneric is the portable lane-wise add: dst[j] += add[j],
// wrapping modulo 2^32.
//
//lint:allocfree
//lint:bce
//lint:inline
func addInt32LanesGeneric(dst, add *[Lanes]int32) {
	for j := 0; j < Lanes; j += 4 {
		dst[j] += add[j]
		dst[j+1] += add[j+1]
		dst[j+2] += add[j+2]
		dst[j+3] += add[j+3]
	}
}
