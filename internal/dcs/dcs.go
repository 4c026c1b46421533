// Package dcs implements the basic Distinct-Count Sketch of Ganguly,
// Garofalakis, Rastogi and Sabnani ("Streaming Algorithms for Robust,
// Real-Time Detection of DDoS Attacks", ICDCS 2007, §3–§4).
//
// The sketch summarizes a stream of flow updates (source, dest, ±1) in
// guaranteed small space and O(r·log m) time per update, and answers top-k
// queries over the *distinct-source frequency* metric
//
//	f_v = |{u : net occurrences of (u,v) in the stream > 0}|
//
// by extracting a distinct sample of source-destination pairs from the
// sketch's hash structure (procedure BaseTopk, Fig. 3 of the paper).
//
// Structure: a first-level hash h maps each 64-bit pair key onto one of
// Levels buckets with geometrically decreasing probability Pr[h(x)=l] =
// 2^-(l+1). Each first-level bucket holds r independent second-level hash
// tables of s buckets each, and each second-level bucket stores a count
// signature (package sig) from which a lone occupant can be reconstructed
// exactly. Because every structure is a linear function of the stream, the
// sketch natively supports deletions and merging.
package dcs

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dcsketch/internal/hashing"
	"dcsketch/internal/sig"
	"dcsketch/internal/vec"
)

// The vectorized kernels operate on exactly one lane per key bit; the two
// constants are definitionally equal, and the conversion in applySig relies
// on it.
var _ [vec.Lanes]struct{} = [sig.KeyBits]struct{}{}

// batchChunk is the number of records UpdateBatch locates before applying
// them: large enough to amortize the phase switch, small enough that the
// located chunk (keys, fingerprints, levels, bucket ordinals) stays resident
// in L1 while the apply loop replays it.
const batchChunk = 128

// Default parameter values; the defaults for r and s match the paper's
// experimental configuration (§6.1).
const (
	DefaultTables  = 3
	DefaultBuckets = 128
	DefaultLevels  = 64
	DefaultEpsilon = 1.0 / 3.0
)

// Config carries the tunable parameters of a Distinct-Count Sketch.
// The zero value is replaced by the package defaults field-by-field.
type Config struct {
	// Tables is r, the number of independent second-level hash tables per
	// first-level bucket. The analysis wants r = Θ(log(n/δ)); the paper's
	// experiments use 3-4.
	Tables int
	// Buckets is s, the number of buckets per second-level hash table.
	// The analysis wants s = Θ(U·log((n+log m)/δ) / (f_vk·ε²)); the
	// paper's experiments use 64-256.
	Buckets int
	// Levels is the number of first-level hash buckets, Θ(log m²). The
	// default 64 covers the full 64-bit pair domain; only ~log2(U) levels
	// are ever non-empty.
	Levels int
	// Seed derives every hash function in the sketch. Two sketches must
	// share a seed to be mergeable.
	Seed uint64
	// Epsilon is the accuracy parameter ε of the TRACKAPPROXTOPK
	// guarantee, used by the paper-form stopping rule (see SampleTarget).
	Epsilon float64
	// SampleTarget is the estimator's stopping threshold: sampling
	// descends first-level buckets until the distinct sample holds at
	// least this many pairs. Zero selects the practical default of s
	// (Buckets), which loads the stopping level with ~s/2 pairs — still
	// ~94% singleton-recoverable at r=3 — and gives sample sizes large
	// enough to reproduce the paper's reported accuracy. The paper's
	// pseudocode constant (1+ε)·s/16 (Fig. 3, step 3) is available via
	// PaperSampleTarget for ablation; it is a conservative analysis
	// constant that yields ~10-pair samples at s=128.
	SampleTarget int
	// DisableFingerprint drops the checksum counter from the count
	// signatures, reproducing the paper's exact structure. With the
	// counter enabled (default), delete-induced false singletons are
	// detected with probability 1-2^-63 at the cost of one extra counter
	// per bucket (~1.5% space).
	DisableFingerprint bool
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Tables == 0 {
		c.Tables = DefaultTables
	}
	if c.Buckets == 0 {
		c.Buckets = DefaultBuckets
	}
	if c.Levels == 0 {
		c.Levels = DefaultLevels
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.SampleTarget == 0 {
		c.SampleTarget = c.Buckets
	}
	return c
}

// PaperSampleTarget returns the stopping threshold exactly as written in the
// paper's pseudocode, (1+ε)·s/16, for use in Config.SampleTarget when
// reproducing the paper's structure verbatim.
func PaperSampleTarget(buckets int, epsilon float64) int {
	t := int((1 + epsilon) * float64(buckets) / 16)
	if t < 1 {
		t = 1
	}
	return t
}

// validate reports the first invalid field of an already-defaulted config.
func (c Config) validate() error {
	switch {
	case c.Tables < 1:
		return fmt.Errorf("dcs: Tables = %d, must be >= 1", c.Tables)
	case c.Buckets < 2:
		return fmt.Errorf("dcs: Buckets = %d, must be >= 2", c.Buckets)
	case c.Levels < 1 || c.Levels > 64:
		return fmt.Errorf("dcs: Levels = %d, must be in [1,64]", c.Levels)
	case c.Epsilon <= 0 || c.Epsilon >= 1:
		return fmt.Errorf("dcs: Epsilon = %v, must be in (0,1)", c.Epsilon)
	case c.SampleTarget < 1:
		return fmt.Errorf("dcs: SampleTarget = %d, must be >= 1", c.SampleTarget)
	}
	return nil
}

// Estimate is one entry of a top-k answer: a destination and its estimated
// distinct-source frequency.
type Estimate struct {
	Dest uint32
	F    int64
}

// SampledPair is one element of the distinct sample recovered from the
// sketch: a pair key together with its net occurrence count in the stream.
type SampledPair struct {
	Key   uint64
	Count int64
}

// KeyDelta is one flow update addressed by its pre-packed 64-bit pair key,
// the unit of the batched ingestion path (UpdateBatch). Delta carries the
// same ±1 discipline as the scalar Update/UpdateKey arguments.
type KeyDelta struct {
	Key   uint64
	Delta int64
}

// Sketch is a basic Distinct-Count Sketch. It is not safe for concurrent
// mutation; wrap it in a mutex or use one sketch per goroutine and Merge.
type Sketch struct {
	cfg    Config
	layout sig.Layout
	width  int

	// tableStride and levelStride are the precomputed distances (in
	// counters) between consecutive second-level tables and consecutive
	// first-level buckets in the flattened counter array, hoisted out of
	// the update kernel.
	tableStride int
	levelStride int

	// loc holds the hash functions; immutable after New.
	loc *Locator

	// counters is the flattened 4-D array X[level][table][bucket][pos]
	// of the paper (Fig. 2).
	counters []int64

	// occupied[l] counts the second-level buckets at first-level bucket l
	// whose total counter is non-zero. A level with occupied[l] == 0 can
	// hold no decodable singleton (only a positive total decodes), so the
	// sampling loop skips it without scanning its r·s signatures. The
	// count is maintained incrementally by the update kernel and recounted
	// wholesale after the bulk linear operations (Merge, Subtract,
	// deserialization).
	occupied []int32

	// updates counts processed stream updates (inserts + deletes).
	updates uint64

	// Query scratch owned by the sketch and reused across queries, keeping
	// the sampling path allocation-light. Their use makes queries mutating
	// operations; the sketch's existing single-goroutine contract already
	// covers that.
	sampleSeen  map[uint64]struct{} //lint:scratch
	samplePairs []SampledPair       //lint:scratch
	destFreq    map[uint32]int64    //lint:scratch
	estimates   []Estimate          //lint:scratch

	// addends is the per-update masked addend vector (vec.BuildMaskedAddends
	// output), built once per record by StartLocated and applied to each of
	// the r tables by ApplyLocated.
	addends [vec.Lanes]int64

	// located is UpdateBatch's scratch: each chunk of the batch is located
	// into it, then applied. It grows to batchChunk records once.
	located Located //lint:scratch
	// keyBuckets holds UpdateKey's r bucket ordinals.
	keyBuckets []int32 //lint:scratch

	// qstats holds the query-path health counters (see QueryStats). Plain
	// words under the same single-writer contract as the rest of the
	// sketch; exported to telemetry through scrape-time probes that take
	// the owning layer's lock.
	qstats QueryStats
}

// New builds an empty sketch. Zero-valued Config fields take the package
// defaults.
func New(cfg Config) (*Sketch, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout := sig.Layout{Fingerprint: !cfg.DisableFingerprint}
	width := layout.Width()
	return &Sketch{
		cfg:         cfg,
		layout:      layout,
		width:       width,
		tableStride: cfg.Buckets * width,
		levelStride: cfg.Tables * cfg.Buckets * width,
		loc:         newLocator(cfg),
		counters:    make([]int64, cfg.Levels*cfg.Tables*cfg.Buckets*width),
		occupied:    make([]int32, cfg.Levels),
		keyBuckets:  make([]int32, cfg.Tables),
	}, nil
}

// Config returns the sketch's effective (defaulted) configuration.
func (s *Sketch) Config() Config { return s.cfg }

// Updates returns the number of stream updates processed so far.
func (s *Sketch) Updates() uint64 { return s.updates }

// SizeBytes returns the memory footprint of the counter array, the dominant
// component of the sketch (hash tables add a fixed ~16 KiB per function).
func (s *Sketch) SizeBytes() int { return len(s.counters) * 8 }

// bucketSig returns the signature slice for (level, table, bucket).
func (s *Sketch) bucketSig(level, table, bucket int) []int64 {
	i := ((level*s.cfg.Tables+table)*s.cfg.Buckets + bucket) * s.width
	return s.counters[i : i+s.width]
}

// Update processes one flow update for the (src, dst) address pair with net
// frequency change delta (+1 for a potentially-malicious connection such as
// a TCP SYN, -1 when the connection is legitimized, e.g. by the client ACK).
func (s *Sketch) Update(src, dst uint32, delta int64) {
	s.UpdateKey(hashing.PairKey(src, dst), delta)
}

// UpdateKey is Update on a pre-packed 64-bit pair key.
//
//lint:allocfree
//lint:inline
func (s *Sketch) UpdateKey(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	s.updateKey(key, delta)
}

// updateKey runs one update through the same two phases as UpdateBatch,
// without the batch bookkeeping.
//
//lint:allocfree
//lint:bce
func (s *Sketch) updateKey(key uint64, delta int64) {
	var rec locatedRec
	s.loc.locate(&rec, s.keyBuckets, key, delta)
	s.applyLocated(&rec, s.keyBuckets)
}

// UpdateBatch applies a batch of flow updates, the bulk form of UpdateKey.
// Zero deltas are skipped. The batch slice is read-only to the sketch and
// may be reused by the caller afterwards.
//
// The batch runs in two phases per chunk of batchChunk records: the hash
// phase (Locator.LocateBatch) computes every record's first-level bucket,
// fingerprint and r bucket ordinals into sketch-owned scratch, and the apply
// phase replays the scratch with the vectorized signature adds. Splitting
// the pure hash computation from the counter writes keeps the hash tables
// hot in cache during the first phase and lets the second prefetch the
// buckets of records it has not reached yet.
//
//lint:allocfree
//lint:bce
func (s *Sketch) UpdateBatch(batch []KeyDelta) {
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), batchChunk)]
		batch = batch[len(chunk):]
		s.loc.LocateBatch(&s.located, chunk)
		s.updateLocated(&s.located)
	}
}

// applySig adds the prebuilt masked addend vector (s.addends, see
// vec.BuildMaskedAddends) plus the total/fingerprint counters to the count
// signature at flat counter index i, and returns the occupancy change of the
// bucket (+1 when the total became non-zero, -1 when it returned to zero).
// The 65 mandatory counters are addressed through a fixed-size array pointer
// so the compiler drops the per-element bounds checks; the 64 bit-location
// counters go through one 64-lane vector add. Building the addends once per
// update amortizes the key-bit masking across the r tables, which is what
// made the masked-add loop (~78% of the PR 2 update profile) disappear.
//
//lint:allocfree
//lint:bce
func (s *Sketch) applySig(i int, delta, fp int64) int32 {
	c := (*[1 + sig.KeyBits]int64)(s.counters[i:]) //lint:bceok one check for the whole 65-counter signature; i is a trusted flat index
	old := c[0]
	tot := old + delta
	c[0] = tot
	occ := int32(0)
	if old == 0 {
		if tot != 0 {
			occ = 1
		}
	} else if tot == 0 {
		occ = -1
	}
	vec.AddInt64Lanes((*[vec.Lanes]int64)(c[1:]), &s.addends)
	if s.layout.Fingerprint {
		s.counters[i+1+sig.KeyBits] += delta * fp //lint:bceok fingerprint counter sits one past the array-pointer window
	}
	return occ
}

// sampleTarget is the estimator's stopping threshold (see
// Config.SampleTarget).
func (s *Sketch) sampleTarget() int { return s.cfg.SampleTarget }

// DecodeBucket reconstructs the lone occupant of second-level bucket
// (level, table, bucket) when the count signature there is a verified
// singleton (procedure ReturnSingleton, Fig. 4, hardened with the
// fingerprint check and a structural re-hash check). ok is false for empty
// buckets, collisions, and false singletons.
func (s *Sketch) DecodeBucket(level, table, bucket int) (key uint64, count int64, ok bool) {
	return s.decodeSig(s.bucketSig(level, table, bucket), level, table, bucket, nil)
}

// decodeSig is DecodeBucket on sg, the signature of bucket (level, table,
// bucket). own, when non-nil, is a located record whose location that is:
// if the bucket decodes to own's key, the fingerprint check uses own's
// precomputed fingerprint and the structural re-hash is skipped, since it
// could only confirm the location. The outcome and the decode counters are
// the same as without own.
func (s *Sketch) decodeSig(sg []int64, level, table, bucket int, own *locatedRec) (key uint64, count int64, ok bool) {
	// Fast path: only a positive total can decode as a singleton, so the
	// overwhelmingly common empty bucket is rejected after one counter
	// read instead of the full 65-counter scan sig.Decode performs.
	if sg[0] == 0 {
		return 0, 0, false
	}
	key, count, state := s.layout.Decode(sg)
	if state != sig.Singleton {
		s.qstats.DecodeFailures++
		return 0, 0, false
	}
	located := own != nil && own.key == key
	var fp int64
	if located {
		fp = own.fp
	} else if s.layout.Fingerprint {
		fp = s.loc.fpHash.Fingerprint(key)
	}
	if !s.layout.VerifyFingerprint(sg, count, fp) {
		s.qstats.ChecksumRejects++
		return 0, 0, false
	}
	// A decoded pair must actually belong to this level and bucket; a
	// mismatch means a residual false singleton that slipped past the
	// checksum (or the checksum is disabled) and is rejected structurally.
	if !located && (s.loc.levelHash.Level(key, s.cfg.Levels) != level ||
		s.loc.bucketHash[table].Bucket(key, s.cfg.Buckets) != bucket) {
		s.qstats.StructuralRejects++
		return 0, 0, false
	}
	s.qstats.DecodeSingletons++
	return key, count, true
}

// LevelOf returns the first-level bucket key maps to.
func (s *Sketch) LevelOf(key uint64) int {
	return s.loc.levelHash.Level(key, s.cfg.Levels)
}

// BucketOf returns the second-level bucket key maps to in the given table.
func (s *Sketch) BucketOf(table int, key uint64) int {
	return s.loc.bucketHash[table].Bucket(key, s.cfg.Buckets)
}

// levelSingletons appends to dst the verified singleton pairs found in
// first-level bucket `level`, deduplicated across the r second-level tables,
// and returns the extended slice. seen is the cross-table dedup set, reset by
// the caller per level (a pair occupies exactly one level, so cross-level
// duplicates are impossible).
func (s *Sketch) levelSingletons(level int, seen map[uint64]struct{}, dst []SampledPair) []SampledPair {
	for j := 0; j < s.cfg.Tables; j++ {
		for b := 0; b < s.cfg.Buckets; b++ {
			key, count, ok := s.DecodeBucket(level, j, b)
			if !ok {
				continue
			}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			dst = append(dst, SampledPair{Key: key, Count: count})
		}
	}
	return dst
}

// DistinctSample runs the level-descending sampling loop of BaseTopk
// (Fig. 3, steps 1-6): starting from the topmost first-level bucket it
// recovers all singleton pairs per level until the sample reaches the
// (1+ε)·s/16 target, and returns the sample together with the lowest level
// included. Every returned pair mapped to a level >= the returned one, an
// event of probability 2^-level per distinct pair, so frequencies observed in
// the sample scale by 2^level.
//
// Levels whose occupancy index is zero hold no positive-total bucket and are
// skipped without scanning (they cannot contribute singletons, and an empty
// level can never trip the stopping rule). The returned slice is owned by
// the sketch and is only valid until the next query or update; callers that
// retain the sample must copy it.
func (s *Sketch) DistinctSample() (pairs []SampledPair, level int) {
	target := s.sampleTarget()
	if s.sampleSeen == nil {
		s.sampleSeen = make(map[uint64]struct{}, target*2)
	}
	seen := s.sampleSeen
	pairs = s.samplePairs[:0]
	level = 0
	for b := s.cfg.Levels - 1; b >= 0; b-- {
		if s.occupied[b] == 0 {
			continue
		}
		clear(seen)
		pairs = s.levelSingletons(b, seen, pairs)
		if len(pairs) >= target {
			level = b
			break
		}
	}
	s.samplePairs = pairs
	s.qstats.Queries++
	s.qstats.SampleLevel = level
	s.qstats.SampleSize = len(pairs)
	return pairs, level //lint:scratchok documented zero-copy view, valid until the next query or update
}

// TopK returns the (approximate) k destinations with the largest
// distinct-source frequencies, in descending frequency order (ties broken by
// ascending address). This is procedure BaseTopk (Fig. 3): frequencies are
// occurrence counts in the distinct sample scaled by 2^level.
//
// Note: the paper's pseudocode scales by 2^b where b has already been
// decremented past the last collected level; its analysis (Lemma 4.3)
// defines b as the level at which the loop terminates, i.e. the last level
// included, which is what this implementation uses.
//
// The returned slice is owned by the sketch and only valid until the next
// query or update; callers that retain it must copy (the public API layer
// does).
func (s *Sketch) TopK(k int) []Estimate {
	if k <= 0 {
		return nil
	}
	pairs, level := s.DistinctSample()
	ests := s.destEstimates(pairs, 1<<uint(level))
	if k < len(ests) {
		ests = ests[:k]
	}
	return ests
}

// Threshold returns every destination whose estimated distinct-source
// frequency is at least tau, in descending frequency order (§2, footnote 3).
// The returned slice is sketch-owned scratch with the same validity contract
// as TopK.
func (s *Sketch) Threshold(tau int64) []Estimate {
	pairs, level := s.DistinctSample()
	ests := s.destEstimates(pairs, 1<<uint(level))
	cut := sort.Search(len(ests), func(i int) bool { return ests[i].F < tau })
	return ests[:cut]
}

// EstimateDistinctPairs estimates U, the total number of distinct
// source-destination pairs with positive net frequency, as 2^level · |sample|.
func (s *Sketch) EstimateDistinctPairs() int64 {
	pairs, level := s.DistinctSample()
	return int64(len(pairs)) << uint(level)
}

// destEstimates aggregates a distinct sample into per-destination sample
// frequencies f^s_v, scales them by scale, and returns them sorted by
// descending frequency then ascending destination. Both the aggregation map
// and the returned slice are sketch-owned scratch, valid until the next
// query; callers that retain query answers must copy (the public API layer
// does, via convertEstimates).
func (s *Sketch) destEstimates(pairs []SampledPair, scale int64) []Estimate {
	if s.destFreq == nil {
		s.destFreq = make(map[uint32]int64, len(pairs))
	}
	freq := s.destFreq
	clear(freq)
	for _, p := range pairs {
		freq[hashing.PairDest(p.Key)]++
	}
	ests := s.estimates[:0]
	for dest, f := range freq {
		ests = append(ests, Estimate{Dest: dest, F: f * scale})
	}
	s.estimates = ests
	slices.SortFunc(ests, func(a, b Estimate) int {
		switch {
		case a.F != b.F:
			if a.F > b.F {
				return -1
			}
			return 1
		case a.Dest != b.Dest:
			if a.Dest < b.Dest {
				return -1
			}
			return 1
		}
		return 0
	})
	return ests //lint:scratchok documented zero-copy view, valid until the next query
}

// ErrIncompatible is returned by Merge when the two sketches were built with
// different configurations or seeds.
var ErrIncompatible = errors.New("dcs: sketches have incompatible configurations")

// Merge adds other's counters into s, so that s afterwards summarizes the
// union (concatenation) of both input streams. The sketch is a linear
// transform of the stream, so merging is exact, enabling per-edge-router
// sketches to be combined at a central collector. Both sketches must share
// the same Config, including Seed.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || s.cfg != other.cfg {
		return ErrIncompatible
	}
	for i, c := range other.counters {
		s.counters[i] += c
	}
	s.updates += other.updates
	s.recountOccupancy()
	if debugAssertions {
		s.assertAllBuckets("Merge")
	}
	return nil
}

// Subtract removes other's counters from s, the inverse of Merge: if s
// summarizes stream A∥B and other summarizes B, then afterwards s summarizes
// exactly A. This is what makes epoch-windowed tracking possible (package
// window): retire an old epoch by subtracting its sketch. Both sketches must
// share the same Config, including Seed.
func (s *Sketch) Subtract(other *Sketch) error {
	if other == nil || s.cfg != other.cfg {
		return ErrIncompatible
	}
	for i, c := range other.counters {
		s.counters[i] -= c
	}
	if other.updates > s.updates {
		s.updates = 0
	} else {
		s.updates -= other.updates
	}
	s.recountOccupancy()
	if debugAssertions {
		s.assertAllBuckets("Subtract")
	}
	return nil
}

// Reset clears the sketch to its freshly-constructed state without
// reallocating.
func (s *Sketch) Reset() {
	for i := range s.counters {
		s.counters[i] = 0
	}
	for i := range s.occupied {
		s.occupied[i] = 0
	}
	s.updates = 0
}

// recountOccupancy rebuilds the per-level occupancy index from the counter
// array; used after bulk linear operations that rewrite counters wholesale.
func (s *Sketch) recountOccupancy() {
	i := 0
	for l := range s.occupied {
		n := int32(0)
		for tb := 0; tb < s.cfg.Tables*s.cfg.Buckets; tb++ {
			if s.counters[i] != 0 {
				n++
			}
			i += s.width
		}
		s.occupied[l] = n
	}
}

// OccupiedBuckets returns the occupancy index entry for one first-level
// bucket: the number of its second-level buckets with a non-zero total.
func (s *Sketch) OccupiedBuckets(level int) int { return int(s.occupied[level]) }

// NonEmptyLevels returns the number of first-level buckets that currently
// hold at least one non-zero counter (the paper's "~23 non-empty levels at
// U = 8·10^6" space observation). The count is read from the occupancy
// index (a level is non-empty when occupied[l] > 0), so it costs O(Levels)
// rather than a walk over every counter — cheap enough for alert-onset
// evidence and scrape probes that read it under their owners' locks.
//
// For well-formed streams (the invariants dcsdebug asserts: total >= 0 and
// 0 <= bit <= total, with per-pair deletes never exceeding inserts) a
// zero total forces an all-zero signature, so "some bucket has a non-zero
// total" and "some counter is non-zero" are the same test. On ill-formed
// input they can diverge: a level whose buckets all have zero totals but
// non-zero bit or fingerprint residue counts as empty here. Such a level
// holds no decodable singleton, since only a positive total decodes.
func (s *Sketch) NonEmptyLevels() int {
	n := 0
	for _, occ := range s.occupied {
		if occ > 0 {
			n++
		}
	}
	return n
}
