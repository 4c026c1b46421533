package vec

import (
	"math/rand"
	"testing"
)

// refAddends is the one-bit-at-a-time reference definition the kernels must
// match: add[j] = delta iff bit j of key is set.
func refAddends(key uint64, delta int64) [Lanes]int64 {
	var add [Lanes]int64
	for j := 0; j < Lanes; j++ {
		if key&(1<<uint(j)) != 0 {
			add[j] = delta
		}
	}
	return add
}

func testKeys(rng *rand.Rand, n int) []uint64 {
	keys := []uint64{0, 1, 1 << 63, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555}
	for i := 0; i < n; i++ {
		keys = append(keys, rng.Uint64())
	}
	return keys
}

func TestBuildMaskedAddendsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, key := range testKeys(rng, 200) {
		for _, delta := range []int64{1, -1, 3, -3, 1 << 40, -(1 << 40)} {
			want := refAddends(key, delta)
			var got [Lanes]int64
			BuildMaskedAddends(&got, key, delta)
			if got != want {
				t.Fatalf("BuildMaskedAddends(key=%#x, delta=%d) = %v, want %v", key, delta, got, want)
			}
			var gen [Lanes]int64
			buildMaskedAddendsGeneric(&gen, key, delta)
			if gen != want {
				t.Fatalf("generic builder diverged for key=%#x delta=%d", key, delta)
			}
		}
	}
}

func TestAddInt64LanesMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		var dstFast, dstGen, add [Lanes]int64
		for j := range add {
			dstFast[j] = rng.Int63() - rng.Int63()
			dstGen[j] = dstFast[j]
			add[j] = rng.Int63() - rng.Int63()
		}
		AddInt64Lanes(&dstFast, &add)
		addInt64LanesGeneric(&dstGen, &add)
		if dstFast != dstGen {
			t.Fatalf("iter %d: AddInt64Lanes diverged from generic", iter)
		}
	}
}

// TestBuildThenAddAccumulates drives the two kernels the way the dcs update
// kernel does — build once, apply r times — and checks the accumulated
// counters against scalar accumulation.
func TestBuildThenAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var counters, want [Lanes]int64
	var add [Lanes]int64
	for iter := 0; iter < 300; iter++ {
		key := rng.Uint64()
		delta := int64(1)
		if iter%2 == 1 {
			delta = -1
		}
		BuildMaskedAddends(&add, key, delta)
		for r := 0; r < 3; r++ {
			AddInt64Lanes(&counters, &add)
		}
		for j := 0; j < Lanes; j++ {
			if key&(1<<uint(j)) != 0 {
				want[j] += 3 * delta
			}
		}
	}
	if counters != want {
		t.Fatalf("accumulated counters diverged from scalar reference")
	}
}

// TestPrefetchIsAHint checks the Prefetch dispatcher leaves memory as it
// found it on whichever backend the build selected (the no-op under
// DCSKETCH_FORCE_GENERIC).
func TestPrefetchIsAHint(t *testing.T) {
	var sig [SigBytes / 8]int64
	for i := range sig {
		sig[i] = int64(i) - 33
	}
	want := sig
	Prefetch(&sig[0])
	if sig != want {
		t.Fatalf("Prefetch changed the signature: %v, want %v", sig, want)
	}
}

func TestFastReportsBackend(t *testing.T) {
	// Fast() must be callable and stable; on amd64 CI machines with AVX2 the
	// asm path is what the other tests above exercised.
	if Fast() != Fast() {
		t.Fatal("Fast() not stable")
	}
	t.Logf("vec.Fast() = %v", Fast())
}

func BenchmarkBuildMaskedAddends(b *testing.B) {
	var add [Lanes]int64
	for i := 0; i < b.N; i++ {
		BuildMaskedAddends(&add, uint64(i)*0x9E3779B97F4A7C15, 1)
	}
}

func BenchmarkAddInt64Lanes(b *testing.B) {
	var dst, add [Lanes]int64
	BuildMaskedAddends(&add, 0xDEADBEEFCAFEF00D, 1)
	for i := 0; i < b.N; i++ {
		AddInt64Lanes(&dst, &add)
	}
}
