package dcs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dcsketch/internal/hashing"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := mustNew(t, Config{Buckets: 64, Seed: 101})
	rng := hashing.NewSplitMix64(103)
	for i := 0; i < 5000; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	if !debugAssertions {
		// Net-negative noise must survive serialization too; skipped
		// under -tags dcsdebug, which (correctly) panics on streams
		// whose deletes exceed their inserts.
		for i := 0; i < 500; i++ {
			s.UpdateKey(rng.Next(), -1)
		}
	}

	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if got.Config() != s.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", got.Config(), s.Config())
	}
	if got.Updates() != s.Updates() {
		t.Fatalf("updates = %d, want %d", got.Updates(), s.Updates())
	}
	if !bytes.Equal(int64sToBytes(flatCounters(got)), int64sToBytes(flatCounters(s))) {
		t.Fatal("counters differ after round trip")
	}
}

// flatCounters returns s's counters as the level-major array the DCS1
// payload encodes, X[level][table][bucket][pos] over all Levels, with the
// levels that have no slab as zeros: per bucket its total, its 64 lanes
// sign-extended and its fingerprint.
func flatCounters(s *Sketch) []int64 {
	out := make([]int64, 0, s.cfg.Levels*s.buckets()*s.width)
	for l := 0; l < s.cfg.Levels; l++ {
		for i := 0; i < s.buckets(); i++ {
			out = append(out, bucketCounters(s, l, i)...)
		}
	}
	return out
}

// bucketCounters returns the width counters of bucket i = table·s + bucket
// at level l in encoding order; a bucket of an unallocated level is zeros.
func bucketCounters(s *Sketch, l, i int) []int64 {
	out := make([]int64, s.width)
	if l >= s.top {
		return out
	}
	lv := &s.levels[l]
	out[0] = lv.words[i*s.nwords]
	for j, c := range lanes(lv, i) {
		out[1+j] = int64(c)
	}
	if s.layout.Fingerprint {
		out[s.width-1] = lv.words[i*s.nwords+1]
	}
	return out
}

// appendFlatCounters is the reference encoder for the counter payload: the
// RLE of one flat array. The slab encoder must emit its bytes for
// flatCounters, whatever levels are allocated.
func appendFlatCounters(buf []byte, counters []int64) []byte {
	i := 0
	n := len(counters)
	for i < n {
		if counters[i] == 0 {
			run := i
			for i < n && counters[i] == 0 {
				i++
			}
			buf = binary.AppendUvarint(buf, uint64(i-run)<<1)
			continue
		}
		run := i
		for i < n && counters[i] != 0 {
			i++
		}
		buf = binary.AppendUvarint(buf, uint64(i-run)<<1|1)
		for _, c := range counters[run:i] {
			buf = binary.AppendVarint(buf, c)
		}
	}
	return buf
}

// checkReferenceEncoding fails unless MarshalBinary's bytes for s are the
// header followed by the reference encoding of its zero-extended counters.
func checkReferenceEncoding(t testing.TB, s *Sketch) {
	t.Helper()
	got, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := appendFlatCounters(s.appendHeader(nil), flatCounters(s)); !bytes.Equal(got, want) {
		t.Fatalf("encoding of %d levels differs from the flat reference: %d bytes, want %d", s.top, len(got), len(want))
	}
}

// TestEncodingGolden pins the DCS1 bytes of a seeded stream of 50k inserts
// and 30k deletes in two configurations to SHA-256 digests of the flat
// encoding, then checks those bytes restore and encode back to themselves.
// Snapshots on disk depend on both.
func TestEncodingGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		digest string
	}{
		{Config{Seed: 17}, "6d697fbb0ee7312ab8c281051ef5f85fa7d8b0d5141ed5b458b59ea5fb95a795"},
		{Config{Tables: 2, Buckets: 64, Seed: 23, DisableFingerprint: true}, "9b9a5c4967e9f62d09e4aef20f96b5659b8608a516146ed6319c27ec2986258a"},
	} {
		s := mustNew(t, tc.cfg)
		rng := hashing.NewSplitMix64(tc.cfg.Seed)
		keys := make([]uint64, 50_000)
		for i := range keys {
			keys[i] = rng.Next()
			s.UpdateKey(keys[i], 1)
		}
		for _, k := range keys[:30_000] {
			s.UpdateKey(k, -1)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.digest {
			t.Fatalf("cfg %+v: encoding digest %s, want %s", tc.cfg, got, tc.digest)
		}
		checkReferenceEncoding(t, s)
		restored, err := UnmarshalBinary(data)
		if err != nil {
			t.Fatalf("cfg %+v: restore: %v", tc.cfg, err)
		}
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("cfg %+v: restored sketch encodes differently", tc.cfg)
		}
	}
}

// TestUnmarshalAllocatesToHighestNonZeroLevel checks that decoding allocates
// slabs only up to the highest level holding a non-zero counter, however
// many levels the encoded sketch had allocated.
func TestUnmarshalAllocatesToHighestNonZeroLevel(t *testing.T) {
	s := mustNew(t, Config{Seed: 29})
	rng := hashing.NewSplitMix64(31)
	for i := 0; i < 2000; i++ {
		s.UpdateKey(rng.Next(), 1)
	}
	want := s.LevelsAllocated()
	// A key two levels above the top, inserted and deleted, leaves the
	// levels up to its own allocated and all zeros.
	k := rng.Next()
	for s.LevelOf(k) < want+2 {
		k = rng.Next()
	}
	s.UpdateKey(k, 1)
	s.UpdateKey(k, -1)
	if s.LevelsAllocated() != s.LevelOf(k)+1 {
		t.Fatalf("LevelsAllocated = %d after a key at level %d", s.LevelsAllocated(), s.LevelOf(k))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LevelsAllocated() != want {
		t.Fatalf("decoded sketch allocated %d levels, want %d (highest non-zero level + 1)", got.LevelsAllocated(), want)
	}
	if !slices.Equal(flatCounters(got), flatCounters(s)) {
		t.Fatal("counters differ after round trip")
	}
}

func int64sToBytes(xs []int64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			out = append(out, byte(uint64(x)>>(8*i)))
		}
	}
	return out
}

func TestMarshalEmptySketchIsSmall(t *testing.T) {
	s := mustNew(t, Config{})
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 256 {
		t.Fatalf("empty sketch encodes to %d bytes; RLE should collapse it", len(data))
	}
}

func TestMarshalCompressionOnSparseSketch(t *testing.T) {
	s := mustNew(t, Config{Seed: 1})
	for i := uint64(0); i < 1000; i++ {
		s.UpdateKey(hashing.Mix64(i), 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= s.SizeBytes()/4 {
		t.Fatalf("encoded %d bytes for a %d-byte sketch; expected strong compression", len(data), s.SizeBytes())
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE1234"),
		"short magic": []byte("DC"),
		"header only": []byte("DCS1"),
	}
	for name, data := range cases {
		if _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupt input", name)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	s := mustNew(t, Config{Buckets: 32, Seed: 5})
	for i := uint64(0); i < 200; i++ {
		s.UpdateKey(hashing.Mix64(i), 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, len(data) / 2, 10} {
		if _, err := UnmarshalBinary(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	s := mustNew(t, Config{Buckets: 32, Seed: 6})
	s.UpdateKey(42, 1)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBinary(append(data, 0xff)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestUnmarshalRejectsImplausibleParameters(t *testing.T) {
	// Craft a header claiming an enormous bucket count.
	buf := []byte("DCS1")
	buf = append(buf, 1)                           // tables = 1
	buf = appendUvarintForTest(buf, uint64(1)<<40) // buckets: absurd
	buf = append(buf, 64)                          // levels
	buf = append(buf, make([]byte, 17)...)         // seed+eps+flag
	if _, err := UnmarshalBinary(buf); err == nil {
		t.Fatal("implausible parameters accepted")
	}
}

// TestEpsilonSlotIgnored pins the header's epsilon slot, which no
// configuration field fills: a value in [0, 1) decodes and re-encodes as
// the bits of DefaultEpsilon, and a value outside it is rejected as corrupt,
// the headers the decoder has always rejected.
func TestEpsilonSlotIgnored(t *testing.T) {
	s := mustNew(t, Config{Tables: 1, Buckets: 4, Levels: 4})
	s.UpdateKey(42, 1)
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const slot = len("DCS1") + 3 + 8 // three one-byte uvarints, then the seed
	if got := math.Float64frombits(binary.LittleEndian.Uint64(enc[slot:])); got != DefaultEpsilon {
		t.Fatalf("encoder wrote %v in the epsilon slot, want DefaultEpsilon", got)
	}
	patched := func(eps float64) []byte {
		b := bytes.Clone(enc)
		binary.LittleEndian.PutUint64(b[slot:], math.Float64bits(eps))
		return b
	}
	for _, eps := range []float64{0, 0.9, math.NaN()} {
		d, err := UnmarshalBinary(patched(eps))
		if err != nil {
			t.Fatalf("slot %v rejected: %v", eps, err)
		}
		if again, _ := d.MarshalBinary(); !bytes.Equal(again, enc) {
			t.Fatalf("slot %v did not re-encode as DefaultEpsilon's bits", eps)
		}
	}
	for _, eps := range []float64{-0.5, 1, 7, math.Inf(1)} {
		if _, err := UnmarshalBinary(patched(eps)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("slot %v: got %v, want ErrCorrupt", eps, err)
		}
	}
}

func TestUnmarshalRejectsOversizedProduct(t *testing.T) {
	// Every dimension is individually inside its cap, but the product
	// implies a ~270 GiB counter array; the decoder must reject it before
	// New allocates (regression for fuzz corpus fc7aeaf238eae7e2).
	buf := []byte("DCS1")
	buf = appendUvarintForTest(buf, 48)     // tables
	buf = appendUvarintForTest(buf, 425983) // buckets
	buf = appendUvarintForTest(buf, 25)     // levels
	buf = append(buf, make([]byte, 17)...)  // seed+eps+flag
	buf = appendUvarintForTest(buf, 0)      // sample target
	buf = appendUvarintForTest(buf, 0)      // updates
	_, err := UnmarshalBinary(buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized counter product: got %v, want ErrCorrupt", err)
	}
}

func appendUvarintForTest(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func TestRoundTripPreservesQueryResults(t *testing.T) {
	s := mustNew(t, Config{Buckets: 256, Seed: 7})
	for src := uint32(1); src <= 30; src++ {
		s.Update(src, 9, 1)
	}
	for src := uint32(1); src <= 10; src++ {
		s.Update(src, 13, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.TopK(2), got.TopK(2)
	if len(a) != len(b) {
		t.Fatalf("TopK sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopK[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
