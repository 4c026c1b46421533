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
// constants are definitionally equal, and the conversions between lane
// blocks and signatures rely on it.
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
	// Levels is the number of first-level hash buckets, Θ(log m²): the
	// level hash clamps to it, and the encoding records it. The default 64
	// covers the full 64-bit pair domain. Only ~log2(U) levels are ever
	// non-empty, and a level's counters are allocated only once a stream
	// reaches it, so a larger value costs no memory.
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
	// detected with probability 1-2^-63 at the cost of one extra 8-byte
	// counter per bucket (~3% of a 272-byte bucket).
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

	// width is the number of counters in one signature as the encoding
	// writes them (sig.Layout.Width): 65, or 66 with the fingerprint.
	// nwords is the number of int64 words a bucket keeps beside its bit
	// lanes: its total, and its fingerprint when the layout has one.
	width  int
	nwords int

	// loc holds the hash functions; immutable after New.
	loc *Locator

	// levels[l] holds first-level bucket l's counters, the paper's
	// X[l][table][bucket][pos] (Fig. 2) split by width (see level).
	// Slabs are allocated on first touch: every level below top has them
	// and the rest are nil (and read as zeros). top only grows. Reset
	// zeroes the slabs and keeps them, and no level is ever freed: an
	// ill-formed stream can leave non-zero bit counters in a bucket whose
	// total is zero, and dropping them would break linearity.
	levels []level
	top    int

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
	// the r tables by ApplyLocated. It is allocated on its own, where the
	// allocator puts a pointer-free 256-byte object at a multiple of 256, so
	// the AVX2 kernels' 32-byte loads and stores of it never straddle a cache
	// line. An array field would sit wherever the fields before it put it,
	// and 8 bytes off 32-byte alignment the split accesses make a tracked
	// update ~20% slower.
	addends *[vec.Lanes]int32

	// located is UpdateBatch's scratch: each chunk of the batch is located
	// into it, then applied. It grows to batchChunk records once.
	located Located //lint:scratch
	// keyBuckets holds UpdateKey's r bucket ordinals.
	keyBuckets []int32 //lint:scratch

	// qstats holds the query-path health counters (see QueryStats). Plain
	// words under the same single-writer contract as the rest of the
	// sketch; exported to telemetry through one scrape-time read under the
	// owning layer's lock.
	qstats QueryStats

	// encLen is the length of the last MarshalBinary output, which sizes
	// the next one's buffer. MarshalBinary writes it, so an encoding is a
	// mutating operation; the single-goroutine contract covers that.
	encLen int
}

// level is one first-level bucket's counters, in two slabs. Bucket i =
// table·s + bucket owns lanes [64i, 64i+64) of bits, its 64 bit-location
// counters as int32 lanes that add modulo 2^32, and words [nwords·i,
// nwords·i+nwords) of words, its exact int64 total and fingerprint. A lane
// is exact whenever its bucket's total is below 2^31 (package sig), so the
// narrow lanes halve the slab without changing any answer short of
// saturation. A lane slab (98,304 bytes at 3×128) is larger than 32 KB, so
// the allocator places it on a page boundary and every bucket's lanes are
// exactly four cache lines.
type level struct {
	bits  []int32
	words []int64
}

// New builds an empty sketch. Zero-valued Config fields take the package
// defaults.
func New(cfg Config) (*Sketch, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout := sig.Layout{Fingerprint: !cfg.DisableFingerprint}
	return &Sketch{
		cfg:        cfg,
		layout:     layout,
		width:      layout.Width(),
		nwords:     layout.Width() - sig.KeyBits,
		loc:        newLocator(cfg),
		levels:     make([]level, cfg.Levels),
		occupied:   make([]int32, cfg.Levels),
		keyBuckets: make([]int32, cfg.Tables),
		addends:    new([vec.Lanes]int32),
	}, nil
}

// Config returns the sketch's effective (defaulted) configuration.
func (s *Sketch) Config() Config { return s.cfg }

// Updates returns the number of stream updates processed so far.
func (s *Sketch) Updates() uint64 { return s.updates }

// SizeBytes returns the memory footprint of the allocated counter slabs, the
// dominant component of the sketch (hash tables add a fixed ~16 KiB per
// function): for each level the stream has reached, r·s buckets of 64
// 4-byte bit lanes and 1 or 2 8-byte words (the total, and the fingerprint
// when enabled).
func (s *Sketch) SizeBytes() int { return s.top * s.buckets() * (vec.LaneBytes + 8*s.nwords) }

// buckets returns r·s, the number of second-level buckets in one level.
func (s *Sketch) buckets() int { return s.cfg.Tables * s.cfg.Buckets }

// LevelsAllocated returns the number of first-level buckets whose counters
// are allocated: one past the highest level any update, merge or decode has
// reached. Unlike NonEmptyLevels it never falls.
func (s *Sketch) LevelsAllocated() int { return s.top }

// lanes returns bucket i's 64 bit lanes in lv.
func lanes(lv *level, i int) *[vec.Lanes]int32 {
	return (*[vec.Lanes]int32)(lv.bits[i*vec.Lanes:])
}

// bucketTotal returns the total counter of (level, table, bucket); a bucket
// of an unallocated level reads as zero.
func (s *Sketch) bucketTotal(level, table, bucket int) int64 {
	if level >= s.top {
		return 0
	}
	return s.levels[level].words[(table*s.cfg.Buckets+bucket)*s.nwords]
}

// reserve allocates the slabs of every level below top.
func (s *Sketch) reserve(top int) {
	if top > s.top {
		s.grow(top)
	}
}

// grow is reserve's allocation, once per level over the sketch's life. It
// stays out of line so the pinned update kernels that reserve keep their
// allocation-free spans.
//
//go:noinline
func (s *Sketch) grow(top int) {
	n := s.buckets()
	for l := s.top; l < top; l++ {
		s.levels[l] = level{
			bits:  make([]int32, n*vec.Lanes), //lint:allocok one lane slab per level, allocated the first time a stream reaches it
			words: make([]int64, n*s.nwords),  //lint:allocok one word slab per level, with its lane slab
		}
	}
	s.top = top
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
	s.reserve(rec.level + 1)
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
// vec.BuildMaskedAddends) to the lanes of bucket i of lv, and delta and
// delta·fp to its total and fingerprint words, and returns the occupancy
// change of the bucket (+1 when the total became non-zero, -1 when it
// returned to zero). The 64 bit-location counters go through one 64-lane
// vector add, addressed through a fixed-size array pointer so the compiler
// drops the per-element bounds checks. Building the addends once per update
// amortizes the key-bit masking across the r tables, which is what made the
// masked-add loop (~78% of the PR 2 update profile) disappear.
//
//lint:allocfree
//lint:bce
func (s *Sketch) applySig(lv *level, i int, delta, fp int64) int32 {
	w := i * s.nwords
	old := lv.words[w] //lint:bceok i is a bucket ordinal of this sketch's shape
	tot := old + delta
	lv.words[w] = tot
	occ := int32(0)
	if old == 0 {
		if tot != 0 {
			occ = 1
		}
	} else if tot == 0 {
		occ = -1
	}
	vec.AddInt32Lanes(lanes(lv, i), s.addends) //lint:bceok one check for the 64-lane block; i is a bucket ordinal of this sketch's shape
	if s.layout.Fingerprint {
		lv.words[w+1] += delta * fp //lint:bceok the fingerprint word follows the total
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
//
// A saturated bucket, whose total is 2^31 or more, cannot be read from its
// int32 lanes (sig.Saturated); it counts as a decode failure and decodes
// again, exactly, once deletes bring its total back below 2^31.
func (s *Sketch) DecodeBucket(level, table, bucket int) (key uint64, count int64, ok bool) {
	if level >= s.top {
		return 0, 0, false
	}
	return s.decodeSig(&s.levels[level], level, table, bucket, nil)
}

// decodeSig is DecodeBucket on lv, the counters of level. own, when non-nil,
// is a located record whose location (level, table, bucket) is: if the
// bucket decodes to own's key, the fingerprint check uses own's precomputed
// fingerprint and the structural re-hash is skipped, since it could only
// confirm the location. The outcome and the decode counters are the same as
// without own.
func (s *Sketch) decodeSig(lv *level, level, table, bucket int, own *locatedRec) (key uint64, count int64, ok bool) {
	i := table*s.cfg.Buckets + bucket
	words := lv.words[i*s.nwords : i*s.nwords+s.nwords]
	// Fast path: only a positive total can decode as a singleton, so the
	// overwhelmingly common empty bucket is rejected after one counter
	// read instead of the full 64-lane scan sig.DecodeLanes performs.
	if words[0] == 0 {
		return 0, 0, false
	}
	key, count, state := sig.DecodeLanes(words[0], lanes(lv, i))
	if state != sig.Singleton {
		s.qstats.DecodeFailures++
		return 0, 0, false
	}
	located := own != nil && own.key == key
	if s.layout.Fingerprint {
		var fp int64
		if located {
			fp = own.fp
		} else {
			fp = s.loc.fpHash.Fingerprint(key)
		}
		if words[1] != count*fp {
			s.qstats.ChecksumRejects++
			return 0, 0, false
		}
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
// sketches to be combined at a central collector: the bit lanes add modulo
// 2^32 and stay exact wherever the exact total is below 2^31. Both sketches
// must share the same Config, including Seed.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || s.cfg != other.cfg {
		return ErrIncompatible
	}
	s.reserve(other.top)
	for l := range other.levels[:other.top] {
		src, dst := &other.levels[l], &s.levels[l]
		bits := dst.bits[:len(src.bits)]
		for i, c := range src.bits {
			bits[i] += c
		}
		words := dst.words[:len(src.words)]
		for i, c := range src.words {
			words[i] += c
		}
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
	s.reserve(other.top)
	for l := range other.levels[:other.top] {
		src, dst := &other.levels[l], &s.levels[l]
		bits := dst.bits[:len(src.bits)]
		for i, c := range src.bits {
			bits[i] -= c
		}
		words := dst.words[:len(src.words)]
		for i, c := range src.words {
			words[i] -= c
		}
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

// Reset clears the sketch's counters and statistics without reallocating:
// the slabs it has are zeroed and kept.
func (s *Sketch) Reset() {
	for _, lv := range s.levels[:s.top] {
		clear(lv.bits)
		clear(lv.words)
	}
	clear(s.occupied)
	s.updates = 0
}

// recountOccupancy rebuilds the per-level occupancy index from the counter
// slabs; used after bulk linear operations that rewrite counters wholesale.
// Levels without a slab hold no counters and keep their zero entries.
func (s *Sketch) recountOccupancy() {
	for l, lv := range s.levels[:s.top] {
		n := int32(0)
		for i := 0; i < len(lv.words); i += s.nwords {
			if lv.words[i] != 0 {
				n++
			}
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
