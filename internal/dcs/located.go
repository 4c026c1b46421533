package dcs

import (
	"fmt"

	"dcsketch/internal/hashing"
	"dcsketch/internal/vec"
)

// PrefetchDistance is how many records ahead the located apply loops
// prefetch: while record i applies, record i+PrefetchDistance's buckets
// load. A record's apply takes a few hundred nanoseconds, longer than a
// memory round trip, and two records keep only 2·r signatures (30 cache
// lines at r=3) in flight.
const PrefetchDistance = 2

// Locator holds the hash functions a sketch configuration derives from its
// seed: the first-level (level) hash, the fingerprint hash, and one bucket
// hash per second-level table. It is immutable after construction, so any
// goroutine may locate batches with it while another goroutine owns a sketch
// of the same configuration.
type Locator struct {
	cfg        Config
	levelHash  *hashing.Tab64
	fpHash     *hashing.Tab64
	bucketHash []*hashing.Tab64
}

// newLocator derives the hash functions of an already-defaulted config.
func newLocator(cfg Config) *Locator {
	seeds := hashing.NewSplitMix64(cfg.Seed)
	l := &Locator{
		cfg:        cfg,
		levelHash:  hashing.NewTab64(seeds.Next()),
		fpHash:     hashing.NewTab64(seeds.Next()),
		bucketHash: make([]*hashing.Tab64, cfg.Tables),
	}
	for j := range l.bucketHash {
		l.bucketHash[j] = hashing.NewTab64(seeds.Next())
	}
	return l
}

// Located is a batch of flow updates with every hash location resolved: per
// record the pair key, delta, fingerprint, first-level bucket, and the r
// second-level bucket ordinals. Locator.LocateBatch fills it from the hash
// functions alone, so one goroutine can locate a batch that another applies
// (the server locates before it takes its lock). The zero value is an empty
// batch; its buffers grow to the largest batch located into it and are
// reused after that.
type Located struct {
	loc  *Locator
	recs []locatedRec
	// buckets holds r ordinals per record: buckets[i*r+j] is record i's
	// bucket in table j.
	buckets []int32
	// top is one past the highest first-level bucket of any record: the
	// levels a sketch must have allocated before applying the batch.
	top int
}

// locatedRec is one located update. fp is 0 when the layout has no
// fingerprint counter.
type locatedRec struct {
	key   uint64
	delta int64
	fp    int64
	level int
}

// Len returns the number of records in the batch.
func (lb *Located) Len() int { return len(lb.recs) }

// Key returns record i's pair key.
func (lb *Located) Key(i int) uint64 { return lb.recs[i].key }

// Level returns record i's first-level bucket.
func (lb *Located) Level(i int) int { return lb.recs[i].level }

// LocateBatch is the hash phase of a batch: it resolves the hash locations
// of batch into dst, replacing its contents. Zero-delta records are dropped,
// as UpdateBatch drops them. It reads only the immutable hash functions.
//
//lint:allocfree
func (l *Locator) LocateBatch(dst *Located, batch []KeyDelta) {
	r := len(l.bucketHash)
	if cap(dst.recs) < len(batch) || cap(dst.buckets) < len(batch)*r {
		dst.recs = make([]locatedRec, len(batch)) //lint:allocok grows to the largest batch, then is reused
		dst.buckets = make([]int32, len(batch)*r) //lint:allocok grows with recs
	}
	dst.loc = l
	recs, buckets := dst.recs[:len(batch)], dst.buckets[:len(batch)*r]
	n, top := 0, 0
	for _, u := range batch {
		if u.Delta == 0 {
			continue
		}
		l.locate(&recs[n], buckets[n*r:n*r+r], u.Key, u.Delta)
		top = max(top, recs[n].level+1)
		n++
	}
	dst.recs, dst.buckets, dst.top = recs[:n], buckets[:n*r], top
}

// locate is the hash phase of one update: it fills rec, and bk with the r
// bucket ordinals.
func (l *Locator) locate(rec *locatedRec, bk []int32, key uint64, delta int64) {
	rec.key, rec.delta = key, delta
	rec.level = l.levelHash.Level(key, l.cfg.Levels)
	rec.fp = 0
	if !l.cfg.DisableFingerprint {
		rec.fp = l.fpHash.Fingerprint(key)
	}
	for j, h := range l.bucketHash {
		bk[j] = int32(h.Bucket(key, l.cfg.Buckets))
	}
}

// Locator returns the sketch's hash functions. They never change after New,
// so they may be used without the lock that serializes the sketch.
func (s *Sketch) Locator() *Locator { return s.loc }

// CheckLocated readies the sketch to apply lb, once per batch: it panics
// unless lb was located by hash functions of the sketch's configuration, then
// allocates the slabs of the levels lb reaches. A batch located for another
// configuration would add its records into the wrong buckets, so the located
// apply loops check rather than corrupt the counters. Once it returns, the
// apply loops write into allocated slabs without a check of their own.
func (s *Sketch) CheckLocated(lb *Located) {
	if lb.loc != s.loc && len(lb.recs) > 0 {
		s.checkLocatedConfig(lb)
	}
	s.reserve(lb.top)
}

// checkLocatedConfig is CheckLocated for a batch located by another
// Locator: hash functions derive from the config alone, so an equal config
// (a sketch restored from a snapshot, say) locates identically.
func (s *Sketch) checkLocatedConfig(lb *Located) {
	if lb.loc.cfg != s.cfg {
		panic(fmt.Sprintf("dcs: batch located for config %+v applied to a sketch with config %+v", lb.loc.cfg, s.cfg)) //lint:allocok the panic message is built on the misuse path only
	}
}

// PrefetchLocated starts loading record i's r count signatures into cache,
// so that the record's apply does not stall on memory: per table the four
// lines of the bucket's lanes and the line of its words. The apply loops
// call it PrefetchDistance records ahead.
//
//lint:allocfree
func (s *Sketch) PrefetchLocated(lb *Located, i int) {
	r := len(s.loc.bucketHash)
	lv := &s.levels[lb.recs[i].level]
	for j, b := range lb.buckets[i*r : i*r+r] {
		at := j*s.cfg.Buckets + int(b)
		vec.Prefetch(&lv.bits[at*vec.Lanes], &lv.words[at*s.nwords])
	}
}

// updateLocated is the basic sketch's apply loop, with the buckets of the
// record PrefetchDistance ahead loading while each record applies.
//
//lint:allocfree
//lint:bce
func (s *Sketch) updateLocated(lb *Located) {
	s.CheckLocated(lb)
	n, r := len(lb.recs), len(s.loc.bucketHash)
	for i := 0; i < min(n, PrefetchDistance); i++ {
		s.PrefetchLocated(lb, i)
	}
	for i := range lb.recs {
		if i+PrefetchDistance < n {
			s.PrefetchLocated(lb, i+PrefetchDistance)
		}
		s.applyLocated(&lb.recs[i], lb.buckets[i*r:i*r+r]) //lint:bceok i*r+r <= len(lb.buckets): LocateBatch stores r ordinals per record
	}
}

// applyLocated is the apply phase of one located update on the basic
// sketch: one addend build, then one signature add per table.
//
//lint:allocfree
//lint:bce
func (s *Sketch) applyLocated(rec *locatedRec, bk []int32) {
	s.startLocated(rec)
	lv := &s.levels[rec.level] //lint:bceok the level hash maps below Levels; CheckLocated matched the batch's Levels
	occ := int32(0)
	for j, b := range bk {
		occ += s.applySig(lv, j*s.cfg.Buckets+int(b), rec.delta, rec.fp)
		if debugAssertions && rec.delta < 0 {
			s.assertSig(rec.level, j, int(b), "delete")
		}
	}
	s.occupied[rec.level] += occ //lint:bceok the level hash maps below Levels; CheckLocated matched the batch's Levels
}

// AddLocated applies record i of lb as the basic sketch's apply loop does:
// one addend build, then one signature add per table, with no decode. A
// caller that needs no singleton transitions for a record (the tracking
// sketch, below its tracking floor) uses it instead of StartLocated and
// ApplyLocated.
//
//lint:allocfree
//lint:bce
func (s *Sketch) AddLocated(lb *Located, i int) {
	r := len(s.loc.bucketHash)
	s.applyLocated(&lb.recs[i], lb.buckets[i*r:i*r+r]) //lint:bceok i < lb.Len() by the caller contract, and LocateBatch stores r ordinals per record
}

// StartLocated begins applying record i of lb: it counts the update and
// builds the record's masked addend vector, which ApplyLocated then adds
// into the record's bucket in each table. Apply every table of a record
// before starting the next one.
func (s *Sketch) StartLocated(lb *Located, i int) { s.startLocated(&lb.recs[i]) }

// startLocated counts rec and builds its addends. The delta enters the
// lanes as int32(delta), the same arithmetic modulo 2^32.
func (s *Sketch) startLocated(rec *locatedRec) {
	s.updates++
	vec.BuildMaskedAddends(s.addends, rec.key, int32(rec.delta))
}

// ApplyLocated adds record i of lb, begun with StartLocated, into its bucket
// in table j and returns the bucket's verified singleton before and after
// the add, as DecodeBucket would report them. A bucket that decodes to the
// record's own key is verified against the record's precomputed fingerprint
// and needs no structural re-hash: the record's level and bucket are that
// key's by construction.
//
//lint:allocfree
//lint:bce
func (s *Sketch) ApplyLocated(lb *Located, i, j int) (before, after uint64, beforeOK, afterOK bool) {
	rec := &lb.recs[i]                              //lint:bceok i < lb.Len() by the caller contract
	b := int(lb.buckets[i*len(s.loc.bucketHash)+j]) //lint:bceok j < Tables by the caller contract; CheckLocated matched the batch's Tables
	lv := &s.levels[rec.level]                      //lint:bceok the level hash maps below Levels; CheckLocated matched the batch's Levels
	before, _, beforeOK = s.decodeSig(lv, rec.level, j, b, rec)
	s.occupied[rec.level] += s.applySig(lv, j*s.cfg.Buckets+b, rec.delta, rec.fp) //lint:bceok the level hash maps below Levels; CheckLocated matched the batch's Levels
	if debugAssertions && rec.delta < 0 {
		s.assertSig(rec.level, j, b, "delete")
	}
	after, _, afterOK = s.decodeSig(lv, rec.level, j, b, rec)
	return before, after, beforeOK, afterOK
}
