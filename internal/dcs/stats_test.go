package dcs

import "testing"

// TestQueryStatsSampling checks the counters maintained on the ordinary
// query path: queries, sample shape, decoded singletons, and collision
// decode failures under load.
func TestQueryStatsSampling(t *testing.T) {
	s, err := New(Config{Levels: 8, Tables: 2, Buckets: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if qs := s.QueryStats(); qs != (QueryStats{}) {
		t.Fatalf("fresh sketch has stats %+v", qs)
	}
	// Enough keys that the 64-bucket tables must take collisions.
	for k := uint64(1); k <= 500; k++ {
		s.UpdateKey(k*0x9e3779b97f4a7c15, 1)
	}
	pairs, level := s.DistinctSample()
	qs := s.QueryStats()
	if qs.Queries != 1 {
		t.Fatalf("Queries = %d, want 1", qs.Queries)
	}
	if qs.SampleLevel != level || qs.SampleSize != len(pairs) {
		t.Fatalf("sample shape (%d,%d) != stats (%d,%d)",
			level, len(pairs), qs.SampleLevel, qs.SampleSize)
	}
	if qs.DecodeSingletons == 0 {
		t.Fatal("no singletons decoded from a populated sketch")
	}
	if qs.DecodeFailures == 0 {
		t.Fatal("500 keys in 64 buckets produced no collision decodes")
	}
	if qs.ChecksumRejects != 0 || qs.StructuralRejects != 0 {
		t.Fatalf("insert-only stream rejected decodes: %+v", qs)
	}
	s.TopK(5)
	if got := s.QueryStats().Queries; got != 2 {
		t.Fatalf("Queries after TopK = %d, want 2", got)
	}
}

// singletonBucket inserts one key and returns its (level, bucket) under
// table 0, asserting the bucket decodes.
func singletonBucket(t *testing.T, s *Sketch, key uint64) (level, bucket int) {
	t.Helper()
	s.UpdateKey(key, 1)
	level, bucket = s.LevelOf(key), s.BucketOf(0, key)
	if _, _, ok := s.DecodeBucket(level, 0, bucket); !ok {
		t.Fatalf("lone key did not decode at level %d bucket %d", level, bucket)
	}
	return level, bucket
}

// TestQueryStatsChecksumReject corrupts the fingerprint counter of a valid
// singleton — the signature a delete-induced false singleton presents — and
// checks the decode is rejected and counted.
func TestQueryStatsChecksumReject(t *testing.T) {
	s, err := New(Config{Levels: 4, Tables: 1, Buckets: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	level, bucket := singletonBucket(t, s, testKey)
	before := s.QueryStats()
	fp := &s.levels[level].words[bucket*s.nwords+1] // the word after the total
	*fp++
	if _, _, ok := s.DecodeBucket(level, 0, bucket); ok {
		t.Fatal("corrupted fingerprint still decoded")
	}
	qs := s.QueryStats()
	if qs.ChecksumRejects != before.ChecksumRejects+1 {
		t.Fatalf("ChecksumRejects = %d, want %d", qs.ChecksumRejects, before.ChecksumRejects+1)
	}
	*fp-- // restore; the signature decodes again
	if _, _, ok := s.DecodeBucket(level, 0, bucket); !ok {
		t.Fatal("restored signature no longer decodes")
	}
}

// TestQueryStatsStructuralReject copies a valid singleton signature into a
// bucket its key does not hash to — a false singleton the checksum cannot
// catch — and checks the structural re-hash guard rejects and counts it.
func TestQueryStatsStructuralReject(t *testing.T) {
	s, err := New(Config{Levels: 4, Tables: 1, Buckets: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	level, bucket := singletonBucket(t, s, testKey)
	wrong := (bucket + 1) % s.cfg.Buckets
	lv := &s.levels[level]
	*lanes(lv, wrong) = *lanes(lv, bucket)
	copy(lv.words[wrong*s.nwords:(wrong+1)*s.nwords], lv.words[bucket*s.nwords:])
	if _, _, ok := s.DecodeBucket(level, 0, wrong); ok {
		t.Fatal("relocated signature decoded in the wrong bucket")
	}
	if got := s.QueryStats().StructuralRejects; got != 1 {
		t.Fatalf("StructuralRejects = %d, want 1", got)
	}
}

const testKey uint64 = 0xdecafbad
