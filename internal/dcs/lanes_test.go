package dcs

import (
	"bytes"
	"math"
	"testing"
)

// TestSaturatedBucketRoundTrip merge-doubles a one-key sketch until the
// key's buckets hold 2^31 occurrences, where the int32 lanes wrap: the
// buckets stop decoding, each decode counts as a failure, and the sketch's
// DCS1 bytes restore and encode back to themselves. After a Subtract of one
// occurrence the totals are below 2^31 again, and the wrapped lanes decode
// the key with its exact count. It also runs under -tags dcsdebug, whose
// Merge and Subtract assertions check every bucket.
func TestSaturatedBucketRoundTrip(t *testing.T) {
	for _, cfg := range []Config{{Seed: 11}, {Tables: 2, Buckets: 16, Seed: 12, DisableFingerprint: true}} {
		const key uint64 = 0x9e3779b97f4a7c15
		s := mustNew(t, cfg)
		s.UpdateKey(key, 1)
		one := mustNew(t, cfg)
		one.UpdateKey(key, 1)
		level, bucket := s.LevelOf(key), s.BucketOf(0, key)

		for n := int64(1); n < 1<<31; n *= 2 {
			if k, c, ok := s.DecodeBucket(level, 0, bucket); !ok || k != key || c != n {
				t.Fatalf("cfg %+v: count %d: DecodeBucket = (%#x, %d, %v), want the key", cfg, n, k, c, ok)
			}
			if err := s.Merge(clone(t, s)); err != nil {
				t.Fatal(err)
			}
		}
		failures := s.QueryStats().DecodeFailures
		if _, _, ok := s.DecodeBucket(level, 0, bucket); ok {
			t.Fatalf("cfg %+v: a bucket of total 2^31 decoded", cfg)
		}
		if got := s.QueryStats().DecodeFailures - failures; got != 1 {
			t.Fatalf("cfg %+v: saturated decode counted %d failures, want 1", cfg, got)
		}
		if got := s.TopK(1); len(got) != 0 {
			t.Fatalf("cfg %+v: TopK of a saturated sketch = %v, want empty", cfg, got)
		}

		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		checkReferenceEncoding(t, s)
		restored, err := UnmarshalBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("cfg %+v: a saturated sketch restores to different bytes", cfg)
		}

		for _, sk := range []*Sketch{s, restored} {
			if err := sk.Subtract(one); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < cfg.withDefaults().Tables; j++ {
				k, c, ok := sk.DecodeBucket(level, j, sk.BucketOf(j, key))
				if !ok || k != key || c != math.MaxInt32 {
					t.Fatalf("cfg %+v table %d: after Subtract DecodeBucket = (%#x, %d, %v), want (%#x, 2^31-1)", cfg, j, k, c, ok, key)
				}
			}
		}
	}
}

// clone returns a copy of s by its encoding.
func clone(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wideBitSeed returns the encoding of a one-key sketch whose bit counters
// were rewritten outside the int32 range by a multiple of 2^32: a file
// whose writer kept 64-bit bit counters. The decoder stores each bit
// counter modulo 2^32, which recovers the lanes of the one-key bucket.
func wideBitSeed(tb testing.TB) []byte {
	s, err := New(Config{Tables: 1, Buckets: 4, Levels: 4, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	const key = 0b101010
	s.UpdateKey(key, 1)
	flat := flatCounters(s)
	at := (s.LevelOf(key)*s.buckets() + s.BucketOf(0, key)) * s.width
	flat[at+1+1] += 1 << 32                   // bit 1 of the key is set: 1 + 2^32
	flat[at+1+0] -= 3 << 33                   // bit 0 is clear: -3·2^33
	flat[at+1+5] += math.MaxInt64 - 1<<32 + 1 // bit 5 is set: 2^63 - 2^32 + 1
	return appendFlatCounters(s.appendHeader(nil), flat)
}

// TestUnmarshalWrapsBitCounters decodes wideBitSeed: the bucket's lanes
// hold the bit counters modulo 2^32, so it decodes as the key again.
func TestUnmarshalWrapsBitCounters(t *testing.T) {
	s, err := UnmarshalBinary(wideBitSeed(t))
	if err != nil {
		t.Fatal(err)
	}
	const key = 0b101010
	if k, c, ok := s.DecodeBucket(s.LevelOf(key), 0, s.BucketOf(0, key)); !ok || k != key || c != 1 {
		t.Fatalf("DecodeBucket = (%#x, %d, %v), want (%#x, 1)", k, c, ok, key)
	}
}

// TestFalseSingletonCaughtByFingerprint hand-builds the bucket a structural
// false singleton presents: lanes that claim "key 0b101, count 2" while the
// fingerprint word was accumulated from different content, one occurrence
// each of 0b101 and 0b001. The lanes decode, and the fingerprint check must
// reject the bucket.
func TestFalseSingletonCaughtByFingerprint(t *testing.T) {
	s := mustNew(t, Config{Levels: 4, Tables: 1, Buckets: 16, Seed: 4})
	const key = 0b101
	level, bucket := s.LevelOf(key), s.BucketOf(0, key)
	s.reserve(level + 1)
	lv := &s.levels[level]
	lv.words[bucket*s.nwords] = 2
	lanes(lv, bucket)[0], lanes(lv, bucket)[2] = 2, 2
	fp := s.loc.fpHash
	lv.words[bucket*s.nwords+1] = fp.Fingerprint(0b101) + fp.Fingerprint(0b001)
	if _, _, ok := s.DecodeBucket(level, 0, bucket); ok {
		t.Fatal("fingerprint must reject a mixed bucket masquerading as a singleton")
	}
	if got := s.QueryStats().ChecksumRejects; got != 1 {
		t.Fatalf("ChecksumRejects = %d, want 1", got)
	}
	lv.words[bucket*s.nwords+1] = 2 * fp.Fingerprint(key)
	if k, c, ok := s.DecodeBucket(level, 0, bucket); !ok || k != key || c != 2 {
		t.Fatalf("with the key's own fingerprint: DecodeBucket = (%#x, %d, %v), want (%#x, 2)", k, c, ok, key)
	}
}
