// Package dcsketch is a streaming library for robust, real-time detection of
// DDoS activity in large ISP networks, reproducing Ganguly, Garofalakis,
// Rastogi and Sabnani, "Streaming Algorithms for Robust, Real-Time Detection
// of DDoS Attacks" (ICDCS 2007).
//
// The core data structure is the Distinct-Count Sketch: a hash-based stream
// synopsis that tracks, in guaranteed small space and logarithmic time per
// update, the top-k destination IP addresses by *distinct-source frequency*
// — the number of distinct sources holding potentially-malicious (e.g.
// half-open TCP) connections to them. Unlike volume-based heavy-hitter
// detectors, the sketch handles deletions: when a connection is legitimized
// (the client completes the TCP handshake) it is removed from the synopsis,
// which is what lets a monitor distinguish a SYN-flood attack from a flash
// crowd of legitimate users.
//
// Two variants are provided. Sketch is the basic synopsis (§3-§4 of the
// paper): cheapest per update, with top-k queries that rescan the synopsis.
// Tracker is the tracking synopsis (§5): it additionally maintains the
// distinct sample incrementally so top-k queries cost O(k log k), making
// per-packet-rate continuous tracking practical.
//
// A minimal use:
//
//	sk, err := dcsketch.NewTracker(dcsketch.WithSeed(42))
//	if err != nil { ... }
//	sk.Insert(src, dst)  // SYN observed: half-open connection created
//	sk.Delete(src, dst)  // ACK observed: connection legitimized
//	for _, e := range sk.TopK(10) {
//		fmt.Printf("%s is half-open-contacted by ~%d distinct sources\n",
//			dcsketch.FormatIPv4(e.Dest), e.Count)
//	}
package dcsketch

import (
	"fmt"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/tdcs"
	"dcsketch/internal/trace"
)

// Estimate is one entry of a top-k answer: a destination IPv4 address (host
// byte order) and its estimated distinct-source frequency.
type Estimate struct {
	Dest  uint32
	Count int64
}

// FlowUpdate is one record of a batched submission: a signed net frequency
// change for the (Src, Dst) pair. Delta +1 records a potentially-malicious
// connection (Insert); -1 removes one (Delete).
type FlowUpdate struct {
	Src, Dst uint32
	Delta    int64
}

// appendKeyDeltas re-keys a public batch into the internal packed form.
func appendKeyDeltas(dst []dcs.KeyDelta, batch []FlowUpdate) []dcs.KeyDelta {
	for _, u := range batch {
		dst = append(dst, dcs.KeyDelta{Key: hashing.PairKey(u.Src, u.Dst), Delta: u.Delta})
	}
	return dst
}

// Option configures a sketch.
type Option func(*dcs.Config)

// WithTables sets r, the number of independent second-level hash tables per
// first-level bucket (default 3, the paper's setting). Larger r improves the
// probability that every sampled pair is recovered, at linear update cost.
func WithTables(r int) Option { return func(c *dcs.Config) { c.Tables = r } }

// WithBuckets sets s, the number of buckets per second-level hash table
// (default 128, the paper's setting). Larger s grows both the space and the
// distinct-sample size, tightening the frequency estimates.
func WithBuckets(s int) Option { return func(c *dcs.Config) { c.Buckets = s } }

// WithLevels sets the number of first-level hash buckets (default 64,
// covering the full 64-bit pair domain).
func WithLevels(l int) Option { return func(c *dcs.Config) { c.Levels = l } }

// WithSeed seeds every hash function in the sketch. Sketches must share a
// seed to be mergeable.
func WithSeed(seed uint64) Option { return func(c *dcs.Config) { c.Seed = seed } }

// WithSampleTarget overrides the estimator's stopping threshold (default s;
// the paper's pseudocode constant (1+ε)·s/16 is dcs.PaperSampleTarget — see
// DESIGN.md for why the default is larger).
func WithSampleTarget(n int) Option { return func(c *dcs.Config) { c.SampleTarget = n } }

// WithoutFingerprint drops the checksum counter from the count signatures,
// reproducing the paper's structure byte-for-byte at a small risk of
// delete-induced false singletons.
func WithoutFingerprint() Option { return func(c *dcs.Config) { c.DisableFingerprint = true } }

func buildConfig(opts []Option) dcs.Config {
	var cfg dcs.Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Sketch is the basic Distinct-Count Sketch (paper §3-§4).
type Sketch struct {
	inner *dcs.Sketch
	// scratch is the re-keying buffer of UpdateBatch, reused across calls
	// under the sketch's single-goroutine contract.
	scratch []dcs.KeyDelta
}

// NewSketch builds an empty basic sketch.
func NewSketch(opts ...Option) (*Sketch, error) {
	inner, err := dcs.New(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Sketch{inner: inner}, nil
}

// Insert records a potentially-malicious connection from src to dst (e.g. an
// observed TCP SYN).
func (s *Sketch) Insert(src, dst uint32) { s.inner.Update(src, dst, 1) }

// Delete removes a previously recorded connection (e.g. the handshake
// completed, legitimizing it).
func (s *Sketch) Delete(src, dst uint32) { s.inner.Update(src, dst, -1) }

// Update applies a signed net frequency change for the (src, dst) pair.
func (s *Sketch) Update(src, dst uint32, delta int64) { s.inner.Update(src, dst, delta) }

// UpdateBatch applies a batch of flow updates through the sketch's batched
// kernel — the fast path when updates arrive in groups (decoded packet
// bursts, replayed traces): the per-call overhead is paid once per batch
// rather than once per record. Equivalent to calling Update for each record
// in order.
func (s *Sketch) UpdateBatch(batch []FlowUpdate) {
	if len(batch) == 0 {
		return
	}
	s.scratch = appendKeyDeltas(s.scratch[:0], batch)
	s.inner.UpdateBatch(s.scratch)
}

// TopK returns the approximate k destinations with the largest
// distinct-source frequencies, in descending order.
func (s *Sketch) TopK(k int) []Estimate { return convertEstimates(s.inner.TopK(k)) }

// Threshold returns every destination whose estimated frequency is at least
// tau.
func (s *Sketch) Threshold(tau int64) []Estimate { return convertEstimates(s.inner.Threshold(tau)) }

// DistinctPairs estimates the number of distinct (src, dst) pairs with
// positive net frequency in the stream.
func (s *Sketch) DistinctPairs() int64 { return s.inner.EstimateDistinctPairs() }

// Updates returns the number of stream updates processed.
func (s *Sketch) Updates() uint64 { return s.inner.Updates() }

// SizeBytes returns the synopsis memory footprint.
func (s *Sketch) SizeBytes() int { return s.inner.SizeBytes() }

// Merge folds other into s. Both sketches must have been built with
// identical options, including the seed; afterwards s summarizes the
// concatenation of both streams exactly.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("dcsketch: cannot merge nil sketch")
	}
	return s.inner.Merge(other.inner)
}

// Reset clears the sketch without reallocating.
func (s *Sketch) Reset() { s.inner.Reset() }

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.inner.MarshalBinary() }

// UnmarshalSketch decodes a basic sketch produced by MarshalBinary.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	inner, err := dcs.UnmarshalBinary(data)
	if err != nil {
		return nil, err
	}
	return &Sketch{inner: inner}, nil
}

// Tracker is the Tracking Distinct-Count Sketch (paper §5): same stream
// semantics as Sketch, with O(k log k) continuous top-k queries.
type Tracker struct {
	inner *tdcs.Sketch
	// scratch is the re-keying buffer of UpdateBatch, reused across calls
	// under the sketch's single-goroutine contract.
	scratch []dcs.KeyDelta
}

// NewTracker builds an empty tracking sketch.
func NewTracker(opts ...Option) (*Tracker, error) {
	inner, err := tdcs.New(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Tracker{inner: inner}, nil
}

// Insert records a potentially-malicious connection from src to dst.
func (t *Tracker) Insert(src, dst uint32) { t.inner.Update(src, dst, 1) }

// Delete removes a previously recorded connection.
func (t *Tracker) Delete(src, dst uint32) { t.inner.Update(src, dst, -1) }

// Update applies a signed net frequency change for the (src, dst) pair.
func (t *Tracker) Update(src, dst uint32, delta int64) { t.inner.Update(src, dst, delta) }

// UpdateBatch applies a batch of flow updates through the tracker's batched
// kernel, maintaining the incremental tracking state for every record.
// Equivalent to calling Update for each record in order.
func (t *Tracker) UpdateBatch(batch []FlowUpdate) {
	if len(batch) == 0 {
		return
	}
	t.scratch = appendKeyDeltas(t.scratch[:0], batch)
	t.inner.UpdateBatch(t.scratch)
}

// TopK returns the approximate top-k destinations in O(k log k).
func (t *Tracker) TopK(k int) []Estimate { return convertEstimates(t.inner.TopK(k)) }

// Threshold returns every destination whose estimated frequency is at least
// tau.
func (t *Tracker) Threshold(tau int64) []Estimate { return convertEstimates(t.inner.Threshold(tau)) }

// DistinctPairs estimates the number of distinct live pairs in the stream.
func (t *Tracker) DistinctPairs() int64 { return t.inner.EstimateDistinctPairs() }

// Updates returns the number of stream updates processed.
func (t *Tracker) Updates() uint64 { return t.inner.Updates() }

// SizeBytes returns the synopsis memory footprint including tracking state.
func (t *Tracker) SizeBytes() int { return t.inner.SizeBytes() }

// Merge folds other into t; both trackers must share identical options.
func (t *Tracker) Merge(other *Tracker) error {
	if other == nil {
		return fmt.Errorf("dcsketch: cannot merge nil tracker")
	}
	return t.inner.Merge(other.inner)
}

// Reset clears the tracker without reallocating the counter array.
func (t *Tracker) Reset() { t.inner.Reset() }

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Tracker) MarshalBinary() ([]byte, error) { return t.inner.MarshalBinary() }

// UnmarshalTracker decodes a tracker from a sketch encoding (basic and
// tracking sketches share the wire format; tracking state is rebuilt).
func UnmarshalTracker(data []byte) (*Tracker, error) {
	inner, err := tdcs.UnmarshalBinary(data)
	if err != nil {
		return nil, err
	}
	return &Tracker{inner: inner}, nil
}

func convertEstimates(in []dcs.Estimate) []Estimate {
	out := make([]Estimate, len(in))
	for i, e := range in {
		out[i] = Estimate{Dest: e.Dest, Count: e.F}
	}
	return out
}

// FormatIPv4 renders a host-byte-order IPv4 address in dotted-quad form.
func FormatIPv4(ip uint32) string { return trace.FormatIPv4(ip) }

// ParseIPv4 parses a dotted-quad IPv4 address into host byte order.
func ParseIPv4(s string) (uint32, error) { return trace.ParseIPv4(s) }
