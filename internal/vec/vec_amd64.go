//go:build amd64

package vec

import "os"

// fastLanes gates the AVX2 kernels. It is written once by init-time feature
// detection and read-only afterwards, so the hot-path branch predicts
// perfectly and needs no synchronization. Setting DCSKETCH_FORCE_GENERIC to
// any non-empty value pins the portable kernels even on AVX2 hardware — CI
// uses it to run the whole differential and race suite against the generic
// fallback, which otherwise only executes on non-amd64 builders.
var fastLanes = detectAVX2() && os.Getenv("DCSKETCH_FORCE_GENERIC") == ""

// BuildMaskedAddends fills add with the masked addend vector for one update:
// add[j] = delta when bit j of key is set, else 0. The result is applied to
// each of the update's r tables with AddInt32Lanes.
//
//lint:allocfree
func BuildMaskedAddends(add *[Lanes]int32, key uint64, delta int32) {
	if fastLanes {
		buildAddendsAVX2(add, key, delta)
		return
	}
	buildMaskedAddendsGeneric(add, key, delta)
}

// AddInt32Lanes adds add into dst lane-wise, modulo 2^32: dst[j] += add[j]
// for all 64 lanes. dst and add must not alias unless identical.
//
//lint:allocfree
func AddInt32Lanes(dst, add *[Lanes]int32) {
	if fastLanes {
		addLanes32AVX2(dst, add)
		return
	}
	addInt32LanesGeneric(dst, add)
}

// Prefetch hints the CPU to pull one bucket's counters into every cache
// level: the LaneBytes lane block at bits and the cache line at words (the
// bucket's total and fingerprint), so that a later update of that bucket
// does not stall on memory. It never faults and changes no memory. It is a
// no-op when the AVX2 kernels are off (DCSKETCH_FORCE_GENERIC, or a CPU
// without AVX2).
//
//lint:allocfree
func Prefetch(bits *int32, words *int64) {
	if fastLanes {
		prefetchSig(bits, words)
	}
}

// buildAddendsAVX2 is the AVX2 addend builder (vec_amd64.s): broadcast each
// dword of key and delta, compare against the bit-selector table, mask delta
// through. Only call when fastLanes is true.
//
//lint:allocfree
//go:noescape
func buildAddendsAVX2(add *[Lanes]int32, key uint64, delta int32)

// addLanes32AVX2 is the AVX2 lane-wise add (vec_amd64.s): eight 8-lane
// load/add/store groups. Only call when fastLanes is true.
//
//lint:allocfree
//go:noescape
func addLanes32AVX2(dst, add *[Lanes]int32)

// prefetchSig issues PREFETCHT0 for each 64-byte line of the LaneBytes
// bytes at bits and for the line at words (vec_amd64.s).
//
//lint:allocfree
//go:noescape
func prefetchSig(bits *int32, words *int64)

// cpuid executes the CPUID instruction for the given leaf/subleaf
// (vec_amd64.s). Feature detection only; never on the hot path.
//
//lint:allocfree
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0 (vec_amd64.s). Only valid
// when CPUID reports OSXSAVE; feature detection only.
//
//lint:allocfree
//go:noescape
func xgetbv0() uint64

// detectAVX2 reports whether the CPU and OS together support AVX2: the
// feature bit itself (leaf 7 EBX bit 5), AVX + OSXSAVE (leaf 1 ECX bits
// 28/27), and OS-enabled XMM+YMM state in XCR0 (bits 1 and 2). Checking
// XCR0 matters: a kernel that does not context-switch YMM state would
// corrupt registers across preemption even though the CPU has the ALUs.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xgetbv0()&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
