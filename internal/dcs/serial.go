package dcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dcsketch/internal/sig"
	"dcsketch/internal/vec"
)

// Serialization format (little-endian, varint-based):
//
//	magic "DCS1" | tables | buckets | levels | seed | epsilon bits |
//	fingerprint flag | updates | counter payload
//
// The counter payload is the level-major array X[level][table][bucket][pos]
// of all Levels·r·s·width counters, pos running over a bucket's total, its
// 64 bit counters and its fingerprint (when enabled), run-length encoded: a
// stream of uvarint tokens t where an even t encodes a run of t/2 zero
// counters and an odd t is followed by (t-1)/2 zigzag-varint counter values.
// A level without a slab encodes as zeros and runs continue across bucket and
// level boundaries, so the bytes depend only on the counter values, never on
// which levels are allocated. Sketch counters are overwhelmingly zero (only
// ~log2(U) of 64 levels are populated), so the encoding shrinks the array to
// roughly the size of its live content.
//
// A bit counter is written as its int32 lane sign-extended, so the bytes are
// those of the exact counts for every bucket whose total is below 2^31, and
// decoding stores each bit counter modulo 2^32.

const sketchMagic = "DCS1"

// ErrCorrupt is returned when deserialization encounters malformed input.
var ErrCorrupt = errors.New("dcs: corrupt sketch encoding")

// MarshalBinary encodes the sketch. It implements encoding.BinaryMarshaler.
// The buffer starts at the previous encoding's length plus an eighth, so a
// sketch encoded again (a daemon's periodic state capture) allocates about
// one output's worth instead of growing a small buffer by doubling.
// MarshalBinary records that length in the sketch: like a query, it is a
// mutating operation under the sketch's single-goroutine contract.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := s.appendCounters(s.appendHeader(make([]byte, 0, max(4096, s.encLen+s.encLen/8))))
	s.encLen = len(buf)
	return buf, nil
}

// appendHeader encodes everything before the counter payload onto buf.
func (s *Sketch) appendHeader(buf []byte) []byte {
	buf = append(buf, sketchMagic...)
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Tables))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Buckets))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Levels))
	buf = binary.LittleEndian.AppendUint64(buf, s.cfg.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.cfg.Epsilon))
	if s.cfg.DisableFingerprint {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(s.cfg.SampleTarget))
	return binary.AppendUvarint(buf, s.updates)
}

// appendCounters RLE-encodes the counter payload onto buf, reading the
// slabs in place, bucket by bucket: the total, the 64 lanes sign-extended,
// then the fingerprint.
func (s *Sketch) appendCounters(buf []byte) []byte {
	w := rleWriter{buf: buf}
	n := s.buckets()
	for l := range s.levels {
		if l >= s.top {
			w.zeros(n * s.width)
			continue
		}
		lv := &s.levels[l]
		for i := 0; i < n; i++ {
			words := lv.words[i*s.nwords : i*s.nwords+s.nwords]
			bits := lanes(lv, i)
			if words[0] == 0 && words[len(words)-1] == 0 && *bits == [vec.Lanes]int32{} {
				w.zeros(s.width)
				continue
			}
			w.counter(words[0])
			w.lanes(bits)
			if s.layout.Fingerprint {
				w.counter(words[1])
			}
		}
	}
	return w.finish()
}

// rleWriter run-length encodes a counter sequence handed to it piece by
// piece, exactly as if the pieces were one array. A run of values is written
// as it is read, behind a one-byte placeholder for its token; the run's end
// writes the token there, first shifting the values right when the token
// needs more than one byte.
type rleWriter struct {
	buf []byte
	// zeroRun is the length of the pending run of zeros.
	zeroRun int
	// runLen is the number of values in the pending value run, and runAt
	// the offset of its token's placeholder in buf.
	runLen int
	runAt  int
}

// zeros appends n zero counters.
func (w *rleWriter) zeros(n int) {
	if w.runLen > 0 {
		w.endValues()
	}
	w.zeroRun += n
}

// counter appends one counter.
func (w *rleWriter) counter(c int64) {
	if c == 0 {
		w.zeros(1)
		return
	}
	if w.runLen == 0 {
		w.buf, w.runAt = openRun(w.buf, w.zeroRun)
		w.zeroRun = 0
	}
	w.buf = binary.AppendVarint(w.buf, c)
	w.runLen++
}

// lanes appends a bucket's 64 bit counters. It is counter unrolled over the
// lanes with the writer's state in locals: the encoder's inner loop.
func (w *rleWriter) lanes(bits *[vec.Lanes]int32) {
	buf, zeroRun, runLen := w.buf, w.zeroRun, w.runLen
	for _, c := range bits {
		if c == 0 {
			if runLen > 0 {
				buf = endRun(buf, w.runAt, runLen)
				runLen = 0
			}
			zeroRun++
			continue
		}
		if runLen == 0 {
			buf, w.runAt = openRun(buf, zeroRun)
			zeroRun = 0
		}
		buf = binary.AppendVarint(buf, int64(c))
		runLen++
	}
	w.buf, w.zeroRun, w.runLen = buf, zeroRun, runLen
}

// openRun writes the token of a pending run of zeroRun zeros, if any, and
// opens a value run: it returns buf with the run's one-byte token
// placeholder appended, and the placeholder's offset.
func openRun(buf []byte, zeroRun int) ([]byte, int) {
	if zeroRun > 0 {
		buf = binary.AppendUvarint(buf, uint64(zeroRun)<<1)
	}
	at := len(buf)
	return append(buf, 0), at
}

// endValues closes the pending value run.
func (w *rleWriter) endValues() {
	w.buf = endRun(w.buf, w.runAt, w.runLen)
	w.runLen = 0
}

// endRun writes the token of the n-value run whose placeholder byte is at
// buf[at], after the values that follow it.
func endRun(buf []byte, at, n int) []byte {
	var tok [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tok[:], uint64(n)<<1|1)
	if k > 1 {
		end := len(buf)
		buf = append(buf, tok[1:k]...)
		copy(buf[at+k:], buf[at+1:end])
	}
	copy(buf[at:], tok[:k])
	return buf
}

// finish ends the pending run and returns the encoding.
func (w *rleWriter) finish() []byte {
	if w.runLen > 0 {
		w.endValues()
	}
	if w.zeroRun > 0 {
		w.buf = binary.AppendUvarint(w.buf, uint64(w.zeroRun)<<1)
		w.zeroRun = 0
	}
	return w.buf
}

// UnmarshalBinary decodes a sketch previously produced by MarshalBinary,
// replacing the receiver's state entirely. It implements
// encoding.BinaryUnmarshaler.
func UnmarshalBinary(data []byte) (*Sketch, error) {
	if len(data) < len(sketchMagic) || string(data[:len(sketchMagic)]) != sketchMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	data = data[len(sketchMagic):]

	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
		}
		data = data[n:]
		return v, nil
	}

	tables, err := readUvarint()
	if err != nil {
		return nil, err
	}
	buckets, err := readUvarint()
	if err != nil {
		return nil, err
	}
	levels, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if len(data) < 17 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	seed := binary.LittleEndian.Uint64(data)
	epsilon := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	fpFlag := data[16]
	data = data[17:]
	sampleTarget, err := readUvarint()
	if err != nil {
		return nil, err
	}
	updates, err := readUvarint()
	if err != nil {
		return nil, err
	}

	// Bound the parameters before allocating: Tables*Buckets*Levels*width
	// is the counter count; reject anything implying > 1 GiB. The product
	// check matters, not just the per-dimension caps — individually-plausible
	// dimensions can still multiply out to a multi-hundred-GiB allocation
	// inside New (fuzz corpus fc7aeaf238eae7e2). The factors are capped at
	// 2^10 * 2^24 * 2^6 * width, so the uint64 product cannot overflow.
	if tables == 0 || tables > 1024 || buckets < 2 || buckets > 1<<24 || levels == 0 || levels > 64 {
		return nil, fmt.Errorf("%w: implausible parameters (r=%d s=%d L=%d)", ErrCorrupt, tables, buckets, levels)
	}
	width := uint64(sig.Layout{Fingerprint: fpFlag != 1}.Width())
	if counterCount := tables * buckets * levels * width; counterCount > (1<<30)/8 {
		return nil, fmt.Errorf("%w: counter array too large (%d counters)", ErrCorrupt, counterCount)
	}

	if sampleTarget > 1<<30 {
		return nil, fmt.Errorf("%w: implausible sample target %d", ErrCorrupt, sampleTarget)
	}
	s, err := New(Config{
		Tables:             int(tables),
		Buckets:            int(buckets),
		Levels:             int(levels),
		Seed:               seed,
		Epsilon:            epsilon,
		SampleTarget:       int(sampleTarget),
		DisableFingerprint: fpFlag == 1,
	})
	if err != nil {
		return nil, fmt.Errorf("dcs: decode config: %w", err)
	}
	s.updates = updates

	// i indexes the level-major counter array. Slabs are allocated up to
	// the highest level holding a non-zero value; zeros need no storage.
	levelLen := s.buckets() * s.width
	total := s.cfg.Levels * levelLen
	i := 0
	for i < total {
		token, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated counter payload", ErrCorrupt)
		}
		data = data[n:]
		runLen := int(token >> 1)
		if runLen <= 0 || runLen > total-i {
			return nil, fmt.Errorf("%w: run length %d exceeds remaining %d", ErrCorrupt, runLen, total-i)
		}
		if token&1 == 0 {
			i += runLen // zero run: counters are already zero
			continue
		}
		for j := 0; j < runLen; j++ {
			v, vn := binary.Varint(data)
			if vn <= 0 {
				return nil, fmt.Errorf("%w: truncated counter value", ErrCorrupt)
			}
			data = data[vn:]
			if v != 0 {
				l := i / levelLen
				s.reserve(l + 1)
				s.setCounter(&s.levels[l], i-l*levelLen, v)
			}
			i++
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
	}
	s.recountOccupancy()
	return s, nil
}

// setCounter stores v at position at of a level's encoded counters, where
// bucket at/width's counter at%width is its total (0), bit counter j (1+j,
// stored modulo 2^32), or fingerprint (1+KeyBits).
func (s *Sketch) setCounter(lv *level, at int, v int64) {
	i, pos := at/s.width, at%s.width
	switch {
	case pos == 0:
		lv.words[i*s.nwords] = v
	case pos <= sig.KeyBits:
		lv.bits[i*vec.Lanes+pos-1] = int32(v)
	default:
		lv.words[i*s.nwords+1] = v
	}
}
