package dcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dcsketch/internal/sig"
)

// Serialization format (little-endian, varint-based):
//
//	magic "DCS1" | tables | buckets | levels | seed | epsilon bits |
//	fingerprint flag | updates | counter payload
//
// The counter payload is the level-major array X[level][table][bucket][pos]
// of all Levels·r·s·width counters, run-length encoded: a stream of uvarint
// tokens t where an even t encodes a run of t/2 zero counters and an odd t
// is followed by (t-1)/2 zigzag-varint counter values. A level without a
// slab encodes as zeros and runs continue across level boundaries, so the
// bytes depend only on the counter values, never on which levels are
// allocated. Sketch counters are overwhelmingly zero (only ~log2(U) of 64
// levels are populated), so the encoding shrinks the array to roughly the
// size of its live content.

const sketchMagic = "DCS1"

// ErrCorrupt is returned when deserialization encounters malformed input.
var ErrCorrupt = errors.New("dcs: corrupt sketch encoding")

// MarshalBinary encodes the sketch. It implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.appendCounters(s.appendHeader(make([]byte, 0, 4096))), nil
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
// slabs in place.
func (s *Sketch) appendCounters(buf []byte) []byte {
	w := rleWriter{buf: buf}
	for _, slab := range s.levels {
		if slab == nil {
			w.zeros(s.levelStride)
			continue
		}
		w.counters(slab)
	}
	return w.finish()
}

// rleWriter run-length encodes a counter sequence handed to it in pieces: a
// run that spans pieces is held back until it ends, so it encodes as one
// token, exactly as if the pieces were one array.
type rleWriter struct {
	buf []byte
	// zeroRun is the length of the pending run of zeros.
	zeroRun int
	// valueRun is the pending run of non-zero counters, one segment per
	// piece it spans, and valueLen its length.
	valueRun [][]int64
	valueLen int
}

// zeros appends n zero counters.
func (w *rleWriter) zeros(n int) {
	w.flushValues()
	w.zeroRun += n
}

// counters appends the counters of seg.
func (w *rleWriter) counters(seg []int64) {
	for len(seg) > 0 {
		i := 0
		if seg[0] == 0 {
			for i < len(seg) && seg[i] == 0 {
				i++
			}
			w.zeros(i)
		} else {
			for i < len(seg) && seg[i] != 0 {
				i++
			}
			w.flushZeros()
			w.valueRun = append(w.valueRun, seg[:i])
			w.valueLen += i
		}
		seg = seg[i:]
	}
}

func (w *rleWriter) flushZeros() {
	if w.zeroRun > 0 {
		w.buf = binary.AppendUvarint(w.buf, uint64(w.zeroRun)<<1)
		w.zeroRun = 0
	}
}

func (w *rleWriter) flushValues() {
	if w.valueLen == 0 {
		return
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(w.valueLen)<<1|1)
	for _, seg := range w.valueRun {
		for _, c := range seg {
			w.buf = binary.AppendVarint(w.buf, c)
		}
	}
	w.valueRun, w.valueLen = w.valueRun[:0], 0
}

// finish ends the pending run and returns the encoding.
func (w *rleWriter) finish() []byte {
	w.flushValues()
	w.flushZeros()
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
	total := s.cfg.Levels * s.levelStride
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
				l := i / s.levelStride
				s.reserve(l + 1)
				s.levels[l][i-l*s.levelStride] = v
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
