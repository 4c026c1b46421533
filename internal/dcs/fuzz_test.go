package dcs

import "testing"

// denseSeed returns the encoding of a tiny sketch with every bucket of every
// level occupied, so runs of non-zero counters cross the level boundaries:
// an encoder that split a run at a slab edge would emit different bytes.
func denseSeed(f *testing.F, cfg Config) []byte {
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for k := uint64(1); minOccupied(s) < cfg.Tables*cfg.Buckets; k++ {
		s.UpdateKey(k*0x9e3779b97f4a7c15, 1)
	}
	flat, stride, crossing := flatCounters(s), s.buckets()*s.width, false
	for l := 1; l < cfg.Levels; l++ {
		crossing = crossing || flat[l*stride-1] != 0 && flat[l*stride] != 0
	}
	if !crossing {
		f.Fatalf("cfg %+v: no non-zero run crosses a level boundary", cfg)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// minOccupied returns the fewest occupied second-level buckets of any level.
func minOccupied(s *Sketch) int {
	n := s.cfg.Tables * s.cfg.Buckets
	for l := 0; l < s.cfg.Levels; l++ {
		n = min(n, s.OccupiedBuckets(l))
	}
	return n
}

func FuzzUnmarshalBinary(f *testing.F) {
	small, err := New(Config{Buckets: 4, Levels: 4, Tables: 1})
	if err != nil {
		f.Fatal(err)
	}
	small.UpdateKey(42, 1)
	seed, err := small.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(denseSeed(f, Config{Tables: 1, Buckets: 2, Levels: 4}))
	f.Add(denseSeed(f, Config{Tables: 2, Buckets: 2, Levels: 3, DisableFingerprint: true}))
	f.Add(wideBitSeed(f))
	f.Add([]byte("DCS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		// Anything that decodes must encode as the reference RLE of its
		// zero-extended counter array, whatever levels the decoder
		// allocated.
		checkReferenceEncoding(t, sk)
		// ...and re-encode and decode to the same query answers without
		// panicking.
		out, err := sk.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := UnmarshalBinary(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		a, b := sk.TopK(3), again.TopK(3)
		if len(a) != len(b) {
			t.Fatalf("round trip changed TopK: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip changed TopK[%d]: %+v vs %+v", i, a[i], b[i])
			}
		}
	})
}
