//go:build amd64

package vec

import (
	"math/rand"
	"os"
	"testing"
)

// The tests in this file call the assembly entry points directly — not
// through the fastLanes dispatchers — so the asm bodies are differentially
// verified against the reference even when DCSKETCH_FORCE_GENERIC pins the
// dispatchers to the portable kernels. sketchlint's asmabi analyzer requires
// every asm stub to be exercised by name somewhere in the package tests.

func TestBuildAddendsAVX2MatchesReference(t *testing.T) {
	if !detectAVX2() {
		t.Skip("CPU/OS does not support AVX2")
	}
	rng := rand.New(rand.NewSource(17))
	for _, key := range testKeys(rng, 200) {
		for _, delta := range []int64{1, -1, 5, -5, 1 << 40, -(1 << 40)} {
			want := refAddends(key, delta)
			var got [Lanes]int64
			buildAddendsAVX2(&got, key, delta)
			if got != want {
				t.Fatalf("buildAddendsAVX2(key=%#x, delta=%d) = %v, want %v", key, delta, got, want)
			}
		}
	}
}

func TestAddLanes64AVX2MatchesGeneric(t *testing.T) {
	if !detectAVX2() {
		t.Skip("CPU/OS does not support AVX2")
	}
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 500; iter++ {
		var dstAsm, dstGen, add [Lanes]int64
		for j := range add {
			dstAsm[j] = rng.Int63() - rng.Int63()
			dstGen[j] = dstAsm[j]
			add[j] = rng.Int63() - rng.Int63()
		}
		addLanes64AVX2(&dstAsm, &add)
		addInt64LanesGeneric(&dstGen, &add)
		if dstAsm != dstGen {
			t.Fatalf("iter %d: addLanes64AVX2 diverged from the generic kernel", iter)
		}
	}
}

// TestPrefetchSigLeavesMemoryUnchanged checks the prefetch stub is a pure
// hint: every counter around the prefetched signature reads back unchanged,
// including a signature whose nine prefetched lines run past the end of its
// array.
func TestPrefetchSigLeavesMemoryUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const words = SigBytes / 8
	counters := make([]int64, 4*words)
	for i := range counters {
		counters[i] = rng.Int63() - rng.Int63()
	}
	want := append([]int64(nil), counters...)
	for _, at := range []int{0, 2, words, len(counters) - words, len(counters) - 1} {
		prefetchSig(&counters[at])
		for i := range counters {
			if counters[i] != want[i] {
				t.Fatalf("prefetchSig at word %d changed word %d: %d, want %d", at, i, counters[i], want[i])
			}
		}
	}
}

func TestCPUIDLeafZero(t *testing.T) {
	eax, ebx, ecx, edx := cpuid(0, 0)
	if eax == 0 {
		t.Fatal("cpuid(0,0) reported zero as the maximum basic leaf")
	}
	// EBX:EDX:ECX spell the vendor string; all zero means the instruction
	// did not execute (impossible on amd64, where CPUID always exists).
	if ebx == 0 && ecx == 0 && edx == 0 {
		t.Fatal("cpuid(0,0) returned an empty vendor identification string")
	}
}

func TestXgetbv0(t *testing.T) {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		t.Skip("OSXSAVE not enabled; XGETBV would fault")
	}
	xcr0 := xgetbv0()
	// The architecture requires XCR0 bit 0 (x87 state) to be set.
	if xcr0&1 == 0 {
		t.Fatalf("xgetbv0() = %#x: x87 state bit must always be set in XCR0", xcr0)
	}
	if detectAVX2() && xcr0&0x6 != 0x6 {
		t.Fatalf("xgetbv0() = %#x: detectAVX2 true but XMM/YMM state bits are clear", xcr0)
	}
}

// TestForceGenericPinsFallback asserts the DCSKETCH_FORCE_GENERIC gate: when
// CI re-runs this package with the variable set, the dispatchers must report
// the portable backend no matter what the CPU supports.
func TestForceGenericPinsFallback(t *testing.T) {
	if os.Getenv("DCSKETCH_FORCE_GENERIC") == "" {
		t.Skip("DCSKETCH_FORCE_GENERIC not set; the force-generic CI pass runs this assertion")
	}
	if Fast() {
		t.Fatal("DCSKETCH_FORCE_GENERIC is set but vec.Fast() still reports the SIMD backend")
	}
}
