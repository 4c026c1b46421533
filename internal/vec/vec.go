// Package vec provides the 64-lane masked-add primitives behind the
// Distinct-Count Sketch update kernel (internal/dcs).
//
// A count-signature update adds delta to bit-location counter j exactly when
// bit j of the pair key is set (paper §3, Fig. 2) — a masked 64-lane add
// into the flat counter array. That operation is the measured hot spot of
// the Table-2 update cost (~80% of per-update cycles), and it vectorizes
// perfectly: the addend vector
//
//	add[j] = delta & -((key >> j) & 1)
//
// depends only on (key, delta), so it is built once per update and applied
// to each of the r second-level tables the key maps to with a plain lane-wise
// add. On amd64 with AVX2 both steps run four lanes per instruction; every
// other platform uses the portable loops below, which are semantically
// identical (the package test proves it lane-for-lane).
//
// The split into BuildMaskedAddends + AddInt64Lanes is deliberate: building
// the addends costs one pass of mask arithmetic, while applying them costs a
// pure load-add-store sweep, so the mask work is amortized across the r
// tables of one update (and across nothing else — the addends are scratch,
// valid until the next build).
package vec

// Lanes is the number of int64 lanes the kernels operate on: one per bit of
// the 64-bit pair-key domain (sig.KeyBits).
const Lanes = 64

// SigBytes is the span Prefetch covers: one count signature of a total, one
// counter per lane and a fingerprint counter, 66 int64 counters in all.
const SigBytes = (Lanes + 2) * 8

// Fast reports whether the lane kernels are backed by SIMD on this CPU.
// Query-only (telemetry, tests); both paths compute identical results.
func Fast() bool { return fastLanes }

// buildMaskedAddendsGeneric is the portable addend builder: add[j] = delta
// when bit j of key is set, else 0, branch-free.
//
//lint:allocfree
//lint:bce
//lint:inline
func buildMaskedAddendsGeneric(add *[Lanes]int64, key uint64, delta int64) {
	for j := 0; j < Lanes; j += 4 {
		k := key >> uint(j)
		add[j] = delta & -int64(k&1)
		add[j+1] = delta & -int64((k>>1)&1)
		add[j+2] = delta & -int64((k>>2)&1)
		add[j+3] = delta & -int64((k>>3)&1)
	}
}

// addInt64LanesGeneric is the portable lane-wise add: dst[j] += add[j].
//
//lint:allocfree
//lint:bce
//lint:inline
func addInt64LanesGeneric(dst, add *[Lanes]int64) {
	for j := 0; j < Lanes; j += 4 {
		dst[j] += add[j]
		dst[j+1] += add[j+1]
		dst[j+2] += add[j+2]
		dst[j+3] += add[j+3]
	}
}
