package dcs

// QueryStats is the sketch's decode-path health state: cumulative decode
// outcome counters plus the shape of the most recent distinct sample. Every
// DecodeBucket caller ticks the decode counters — sampling queries, and on
// a tracking sketch also the before/after diffs of the updates at or above
// its tracking floor, the levels a query rebuilds when it lowers the
// floor, and rebuilds — so they reflect all decode activity, not just
// queries. Updates below the floor decode nothing, so on a tracking sketch
// the counters move with the work done, not with the singletons present. The
// counters are plain (non-atomic) words owned by the sketch's single
// writer — the sketch's existing single-goroutine contract covers them, and
// the query kernels stay free of even uncontended atomic traffic. Callers
// that export them concurrently (the monitor's telemetry probes) read them
// under the lock that already serializes queries.
type QueryStats struct {
	// Queries counts distinct-sampling passes (TopK, Threshold,
	// EstimateDistinctPairs and friends each run one).
	Queries uint64
	// DecodeSingletons counts buckets that decoded into a verified
	// singleton pair.
	DecodeSingletons uint64
	// DecodeFailures counts non-empty buckets whose signature was not a
	// singleton (collisions, deletion residue, and saturated buckets whose
	// total reached 2^31, see DecodeBucket). Empty buckets are not
	// counted: they are the common case and carry no health signal.
	DecodeFailures uint64
	// ChecksumRejects counts would-be singletons rejected by the
	// fingerprint checksum — the paper's delete-induced false singletons.
	ChecksumRejects uint64
	// StructuralRejects counts decoded pairs rejected because they re-hash
	// to a different level or bucket than they were found in (the residual
	// false-singleton guard behind the checksum).
	StructuralRejects uint64
	// SampleLevel is the first-level bucket at which the most recent
	// sampling pass stopped (the 2^level frequency scale).
	SampleLevel int
	// SampleSize is the number of pairs in the most recent distinct
	// sample.
	SampleSize int
}

// QueryStats returns the current query-path health counters. Like every
// read of the sketch it must be serialized with mutations by the caller.
func (s *Sketch) QueryStats() QueryStats { return s.qstats }
