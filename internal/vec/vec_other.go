//go:build !amd64

package vec

// No SIMD backend on this architecture; the portable kernels are the only
// implementation, so the dispatchers collapse to direct calls.
const fastLanes = false

// BuildMaskedAddends fills add with the masked addend vector for one update:
// add[j] = delta when bit j of key is set, else 0. The result is applied to
// each of the update's r tables with AddInt32Lanes.
//
//lint:allocfree
func BuildMaskedAddends(add *[Lanes]int32, key uint64, delta int32) {
	buildMaskedAddendsGeneric(add, key, delta)
}

// AddInt32Lanes adds add into dst lane-wise, modulo 2^32: dst[j] += add[j]
// for all 64 lanes. dst and add must not alias unless identical.
//
//lint:allocfree
func AddInt32Lanes(dst, add *[Lanes]int32) {
	addInt32LanesGeneric(dst, add)
}

// Prefetch hints the CPU to pull one bucket's counters into cache. This
// architecture has no prefetch kernel, so it does nothing.
//
//lint:allocfree
func Prefetch(bits *int32, words *int64) {}
