package vec

import (
	"math/rand"
	"testing"
)

// refAddends is the one-bit-at-a-time reference definition the kernels must
// match: add[j] = delta iff bit j of key is set.
func refAddends(key uint64, delta int32) [Lanes]int32 {
	var add [Lanes]int32
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

// testDeltas are the addend values the kernels are checked at: the stream's
// ±1, small multiples, and the int32 extremes a merged or restored bucket's
// lanes can carry, where a sign or width slip would show.
var testDeltas = []int32{1, -1, 2, -2, 3, -3, 1 << 30, -(1 << 30), -(1 << 31), 1<<31 - 1}

// randLanes fills a lane vector with values spread over the whole int32
// range, so the adds wrap.
func randLanes(rng *rand.Rand, v *[Lanes]int32) {
	for j := range v {
		v[j] = int32(rng.Uint32())
	}
}

func TestBuildMaskedAddendsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, key := range testKeys(rng, 200) {
		for _, delta := range testDeltas {
			want := refAddends(key, delta)
			var got [Lanes]int32
			BuildMaskedAddends(&got, key, delta)
			if got != want {
				t.Fatalf("BuildMaskedAddends(key=%#x, delta=%d) = %v, want %v", key, delta, got, want)
			}
			var gen [Lanes]int32
			buildMaskedAddendsGeneric(&gen, key, delta)
			if gen != want {
				t.Fatalf("generic builder diverged for key=%#x delta=%d", key, delta)
			}
		}
	}
}

func TestAddInt32LanesMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		var dstFast, dstGen, add [Lanes]int32
		randLanes(rng, &dstFast)
		dstGen = dstFast
		randLanes(rng, &add)
		AddInt32Lanes(&dstFast, &add)
		addInt32LanesGeneric(&dstGen, &add)
		if dstFast != dstGen {
			t.Fatalf("iter %d: AddInt32Lanes diverged from generic", iter)
		}
		for j := range dstGen {
			if want := int32(uint32(dstGen[j]-add[j]) + uint32(add[j])); dstGen[j] != want {
				t.Fatalf("iter %d lane %d: %d, want the sum modulo 2^32 %d", iter, j, dstGen[j], want)
			}
		}
	}
}

// TestLanesAddModulo2To32 drives both backends across the int32 boundary at
// the extreme deltas: every lane must equal the exact int64 sum reduced
// modulo 2^32, which is what keeps a saturated bucket's lanes exact once
// deletes bring it back (package dcs).
func TestLanesAddModulo2To32(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, key := range testKeys(rng, 50) {
		for _, delta := range testDeltas {
			var lanes, gen, add [Lanes]int32
			var exact [Lanes]int64
			randLanes(rng, &lanes)
			gen = lanes
			for j := range lanes {
				exact[j] = int64(lanes[j])
			}
			BuildMaskedAddends(&add, key, delta)
			for r := 0; r < 3; r++ {
				AddInt32Lanes(&lanes, &add)
				addInt32LanesGeneric(&gen, &add)
				for j := range exact {
					if key&(1<<uint(j)) != 0 {
						exact[j] += int64(delta)
					}
				}
			}
			for j := range exact {
				if lanes[j] != int32(exact[j]) || gen[j] != int32(exact[j]) {
					t.Fatalf("key %#x delta %d lane %d: %d (generic %d), want %d modulo 2^32", key, delta, j, lanes[j], gen[j], exact[j])
				}
			}
		}
	}
}

// TestBuildThenAddAccumulates drives the two kernels the way the dcs update
// kernel does — build once, apply r times — and checks the accumulated
// counters against scalar accumulation.
func TestBuildThenAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var counters, want [Lanes]int32
	var add [Lanes]int32
	for iter := 0; iter < 300; iter++ {
		key := rng.Uint64()
		delta := int32(1)
		if iter%2 == 1 {
			delta = -1
		}
		BuildMaskedAddends(&add, key, delta)
		for r := 0; r < 3; r++ {
			AddInt32Lanes(&counters, &add)
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
	var bits [Lanes]int32
	var words [2]int64
	for i := range bits {
		bits[i] = int32(i) - 33
	}
	words[0], words[1] = 7, -7
	wantBits, wantWords := bits, words
	Prefetch(&bits[0], &words[0])
	if bits != wantBits || words != wantWords {
		t.Fatalf("Prefetch changed the signature: %v %v, want %v %v", bits, words, wantBits, wantWords)
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
	var add [Lanes]int32
	for i := 0; i < b.N; i++ {
		BuildMaskedAddends(&add, uint64(i)*0x9E3779B97F4A7C15, 1)
	}
}

func BenchmarkAddInt32Lanes(b *testing.B) {
	var dst, add [Lanes]int32
	BuildMaskedAddends(&add, 0xDEADBEEFCAFEF00D, 1)
	for i := 0; i < b.N; i++ {
		AddInt32Lanes(&dst, &add)
	}
}
