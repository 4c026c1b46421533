// Package wire defines the framed TCP protocol spoken between edge
// exporters and the DDoS monitor daemon (cmd/ddosmond), realizing the
// paper's deployment architecture (Fig. 1): network elements export flow
// updates to a central DDoS MONITOR.
//
// Every message is one frame:
//
//	u32 little-endian payload length | u8 type | payload
//
// Payload encodings are varint-based and delta-friendly:
//
//	MsgTopKQuery:  k uvarint
//	MsgTopKReply:  count, then per entry: dest u32 LE, frequency uvarint
//	MsgError:      UTF-8 message
//	MsgHello:      version uvarint (currently 1), session ID u64 LE
//	MsgHelloAck:   last-acked sequence uvarint
//	MsgSeqUpdates: sequence uvarint, then the update body: count, then per
//	               update: src u32, dst u32 (fixed LE), delta zigzag varint
//	MsgSeqAck:     acked sequence uvarint
//
// Updates travel only as sequenced batches: an exporter opens with MsgHello
// announcing a nonzero session ID, the server echoes the highest sequence it
// has applied for that session, and every subsequent MsgSeqUpdates batch
// carries a strictly increasing sequence, so a batch retried after a lost ack
// is acked but not re-applied. Type bytes 1, 4 and 5 belonged to retired
// frames (a sequence-less update batch, a shipped sketch and its empty ack);
// they stay reserved and a server answers them like any undefined type.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Frame types.
const (
	_ MsgType = iota + 1 // reserved: retired sequence-less update batch
	MsgTopKQuery
	MsgTopKReply
	_        // reserved: retired shipped sketch
	_        // reserved: retired empty ack of types 1 and 4
	MsgError //lint:msgok payload is raw UTF-8 text with no structure to encode or decode
	MsgHello
	MsgHelloAck
	MsgSeqUpdates
	MsgSeqAck
)

// MsgTypeCount is one past the highest defined MsgType, sized for indexing
// per-type counter arrays (index 0 and the reserved slots are unused;
// unknown types are counted separately by their consumers).
const MsgTypeCount = int(MsgSeqAck) + 1

// String returns the lowercase frame-type name used in telemetry labels.
func (t MsgType) String() string {
	switch t {
	case MsgTopKQuery:
		return "topk_query"
	case MsgTopKReply:
		return "topk_reply"
	case MsgError:
		return "error"
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello_ack"
	case MsgSeqUpdates:
		return "seq_updates"
	case MsgSeqAck:
		return "seq_ack"
	}
	return "unknown"
}

// Defined reports whether t names a frame type. It is false for 0, for the
// reserved slots of retired frames, and past the last type.
func (t MsgType) Defined() bool { return t.String() != "unknown" }

// MaxFrameSize bounds a frame payload; larger frames are rejected before
// allocation (a malicious peer must not make the monitor allocate
// gigabytes).
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrMalformed is wrapped by all payload decoding errors.
var ErrMalformed = errors.New("wire: malformed payload")

// Update mirrors the flow-update triple.
type Update struct {
	Src, Dst uint32
	Delta    int64
}

// TopKEntry is one entry of a top-k reply.
type TopKEntry struct {
	Dest uint32
	F    int64
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var header [5]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	header[4] = byte(t)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r into a fresh payload buffer. io.EOF is
// returned verbatim at a clean frame boundary.
func ReadFrame(r *bufio.Reader) (MsgType, []byte, error) {
	t, payload, _, err := ReadFrameInto(r, nil)
	return t, payload, err
}

// ReadFrameInto reads one frame from r, reading the payload into buf and
// growing it only when the frame exceeds its capacity. It returns the
// payload as a prefix of the (possibly grown) buffer, which it also returns
// for reuse: the zero-copy ingest loop passes the same pooled buffer back in
// on every frame, so steady state reads allocate nothing. The returned
// payload is only valid until the next call with the same buffer. io.EOF is
// returned verbatim at a clean frame boundary.
func ReadFrameInto(r *bufio.Reader, buf []byte) (t MsgType, payload, newBuf []byte, err error) {
	// Peek+Discard instead of io.ReadFull into a local array: the header
	// bytes are read in place from the bufio buffer, so nothing escapes —
	// this keeps the steady-state read path at zero allocations per frame.
	header, err := r.Peek(5)
	if err != nil {
		if errors.Is(err, io.EOF) {
			if len(header) == 0 {
				return 0, nil, buf, io.EOF
			}
			// Match io.ReadFull's contract for a truncated header.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[:4])
	t = MsgType(header[4])
	if _, err := r.Discard(5); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: read header: %w", err)
	}
	if n > MaxFrameSize {
		return 0, nil, buf, ErrFrameTooLarge
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: read payload: %w", err)
	}
	return t, payload, buf, nil
}

// AppendFrame encodes one frame (header plus payload) onto buf and reports
// whether the payload fit the frame-size bound. Writing the appended bytes
// with a single Write is the allocation-free counterpart of WriteFrame,
// whose stack header escapes into the io.Writer interface call; reply paths
// that reuse buf across frames pay no per-frame allocation at all.
func AppendFrame(buf []byte, t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, byte(t))
	return append(buf, payload...), nil
}

// AppendUpdates encodes a batch of updates onto buf.
func AppendUpdates(buf []byte, updates []Update) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	for _, u := range updates {
		buf = binary.LittleEndian.AppendUint32(buf, u.Src)
		buf = binary.LittleEndian.AppendUint32(buf, u.Dst)
		buf = binary.AppendVarint(buf, u.Delta)
	}
	return buf
}

// DecodeUpdates decodes an update body into a freshly allocated slice.
func DecodeUpdates(payload []byte) ([]Update, error) {
	return DecodeUpdatesInto(payload, nil)
}

// DecodeUpdatesInto decodes an update body by appending onto dst
// (which may be nil or a truncated-to-zero pooled buffer) and returns the
// extended slice. When dst's capacity covers the batch, decoding performs no
// allocation — this is the zero-copy ingest path: the server hands the same
// pooled scratch back in for every frame. On error dst's contents are
// unspecified and the returned slice must not be used.
func DecodeUpdatesInto(payload []byte, dst []Update) ([]Update, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: truncated count", ErrMalformed)
	}
	payload = payload[n:]
	// Each update needs at least 9 bytes; reject counts the payload
	// cannot possibly hold before allocating.
	if count > uint64(len(payload)/9+1) {
		return dst, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, count)
	}
	if free := uint64(cap(dst) - len(dst)); free < count {
		grown := make([]Update, len(dst), uint64(len(dst))+count)
		copy(grown, dst)
		dst = grown
	}
	for i := uint64(0); i < count; i++ {
		if len(payload) < 8 {
			return dst, fmt.Errorf("%w: truncated update %d", ErrMalformed, i)
		}
		u := Update{
			Src: binary.LittleEndian.Uint32(payload),
			Dst: binary.LittleEndian.Uint32(payload[4:]),
		}
		payload = payload[8:]
		delta, dn := binary.Varint(payload)
		if dn <= 0 {
			return dst, fmt.Errorf("%w: truncated delta %d", ErrMalformed, i)
		}
		payload = payload[dn:]
		u.Delta = delta
		dst = append(dst, u)
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(payload))
	}
	return dst, nil
}

// AppendTopKQuery encodes a top-k query payload.
func AppendTopKQuery(buf []byte, k int) []byte {
	return binary.AppendUvarint(buf, uint64(k))
}

// DecodeTopKQuery decodes a MsgTopKQuery payload.
func DecodeTopKQuery(payload []byte) (int, error) {
	k, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, fmt.Errorf("%w: bad top-k query", ErrMalformed)
	}
	if k > 1<<20 {
		return 0, fmt.Errorf("%w: implausible k %d", ErrMalformed, k)
	}
	return int(k), nil
}

// AppendTopKReply encodes a top-k reply payload.
func AppendTopKReply(buf []byte, entries []TopKEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, e.Dest)
		buf = binary.AppendUvarint(buf, uint64(e.F))
	}
	return buf
}

// DecodeTopKReply decodes a MsgTopKReply payload.
func DecodeTopKReply(payload []byte) ([]TopKEntry, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: truncated count", ErrMalformed)
	}
	payload = payload[n:]
	if count > uint64(len(payload)/5+1) {
		return nil, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, count)
	}
	out := make([]TopKEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrMalformed, i)
		}
		dest := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		f, fn := binary.Uvarint(payload)
		if fn <= 0 {
			return nil, fmt.Errorf("%w: truncated frequency %d", ErrMalformed, i)
		}
		payload = payload[fn:]
		out = append(out, TopKEntry{Dest: dest, F: int64(f)})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(payload))
	}
	return out, nil
}

// HelloVersion is the current replay-handshake protocol version.
const HelloVersion = 1

// AppendHello encodes a MsgHello payload announcing a replay session.
// Session IDs must be nonzero (zero means "no session" server-side).
func AppendHello(buf []byte, sessionID uint64) []byte {
	buf = binary.AppendUvarint(buf, HelloVersion)
	return binary.LittleEndian.AppendUint64(buf, sessionID)
}

// DecodeHello decodes a MsgHello payload into its session ID.
func DecodeHello(payload []byte) (uint64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated hello version", ErrMalformed)
	}
	if v != HelloVersion {
		return 0, fmt.Errorf("%w: unsupported hello version %d", ErrMalformed, v)
	}
	payload = payload[n:]
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: hello session ID must be 8 bytes, got %d", ErrMalformed, len(payload))
	}
	id := binary.LittleEndian.Uint64(payload)
	if id == 0 {
		return 0, fmt.Errorf("%w: zero hello session ID", ErrMalformed)
	}
	return id, nil
}

// AppendHelloAck encodes a MsgHelloAck payload: the highest sequence the
// server has applied (and will never re-apply) for the announced session;
// zero when the session is new.
func AppendHelloAck(buf []byte, lastAcked uint64) []byte {
	return binary.AppendUvarint(buf, lastAcked)
}

// DecodeHelloAck decodes a MsgHelloAck payload.
func DecodeHelloAck(payload []byte) (uint64, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, fmt.Errorf("%w: bad hello ack", ErrMalformed)
	}
	return seq, nil
}

// AppendSeqUpdates encodes a MsgSeqUpdates payload: a batch sequence number
// (strictly increasing per session, starting at 1) followed by the update
// body (AppendUpdates).
func AppendSeqUpdates(buf []byte, seq uint64, updates []Update) []byte {
	buf = binary.AppendUvarint(buf, seq)
	return AppendUpdates(buf, updates)
}

// DecodeSeqUpdates decodes a MsgSeqUpdates payload into a freshly allocated
// slice.
func DecodeSeqUpdates(payload []byte) (uint64, []Update, error) {
	return DecodeSeqUpdatesInto(payload, nil)
}

// DecodeSeqUpdatesInto is DecodeSeqUpdates appending the decoded updates
// onto dst, with the same reuse contract as DecodeUpdatesInto. On error the
// returned slice's contents are unspecified.
func DecodeSeqUpdatesInto(payload []byte, dst []Update) (uint64, []Update, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, dst, fmt.Errorf("%w: truncated sequence", ErrMalformed)
	}
	if seq == 0 {
		return 0, dst, fmt.Errorf("%w: zero batch sequence", ErrMalformed)
	}
	updates, err := DecodeUpdatesInto(payload[n:], dst)
	if err != nil {
		return 0, updates, err
	}
	return seq, updates, nil
}

// AppendSeqAck encodes a MsgSeqAck payload carrying the acked sequence.
func AppendSeqAck(buf []byte, seq uint64) []byte {
	return binary.AppendUvarint(buf, seq)
}

// DecodeSeqAck decodes a MsgSeqAck payload.
func DecodeSeqAck(payload []byte) (uint64, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, fmt.Errorf("%w: bad sequence ack", ErrMalformed)
	}
	return seq, nil
}
