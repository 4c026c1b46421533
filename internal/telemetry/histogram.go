package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// HistogramBuckets is the number of histogram buckets: one per power of two
// over the uint64 range. Bucket i counts observations v with bits.Len64(v)
// == i, i.e. bucket 0 holds v = 0 and bucket i (i >= 1) holds
// v ∈ [2^(i-1), 2^i). The inclusive upper bound of bucket i is therefore
// 2^i - 1, which is what the Prometheus exporter emits as "le".
const HistogramBuckets = 65

// Histogram is a lock-free power-of-two-bucket histogram for latency (or
// size) observations. The record path is one atomic add into a bucket plus
// one into the running sum — no locks, no allocation, no floating point.
// Readers reconstruct the count by summing the buckets, so the exported
// cumulative series is always internally consistent (monotone in le) even
// while recorders race with the scrape.
//
// The zero value is ready to use; a layer keeps its histograms as fields and
// exports each through Registry.Histogram.
type Histogram struct {
	sum     atomic.Uint64
	_       [cacheLine - 8]byte
	buckets [HistogramBuckets]atomic.Uint64
}

// Observe records one observation.
//
//lint:allocfree
//lint:inline
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// HistogramSnapshot is a point-in-time read of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations (the sum of Buckets).
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
	// Buckets[i] is the (non-cumulative) count of observations in power-
	// of-two bucket i; see HistogramBuckets for the bucket boundaries.
	Buckets [HistogramBuckets]uint64
}

// BucketUpperBound returns the inclusive upper bound of bucket i, i.e.
// 2^i - 1 (bucket 0 holds only zero). The last bucket's bound is the full
// uint64 range.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Snapshot reads the histogram. Concurrent Observes may land between bucket
// reads; each bucket read is individually atomic and the snapshot's Count is
// derived from the buckets, which is the consistency monitoring needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}
