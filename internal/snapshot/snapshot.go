// Package snapshot serializes the collector's full recovery state — the
// merged DCS/TDCS sketch, the monitor's EWMA baseline/variance profiles,
// the server's session replay horizons, the CUSUM tripwire state, and a
// relay's upstream spool — into a single versioned, checksummed file that
// is written atomically (tmp + fsync + rename) and restored on boot.
//
// The format is deliberately dumb: a magic + version header, a sequence of
// length-prefixed typed sections, and a trailing CRC32 over everything
// before it. Sections are optional and appear at most once; a daemon only
// writes the sections that apply to its role (ddosmond has no spool,
// ddosrelay has no CUSUM). All decode paths validate bounds before
// allocating and are hardened by FuzzDecodeSnapshot.
//
// The one invariant the file exists to carry across a process death:
// every batch the dead collector ACKED is either in this state (and the
// restored sessionTable horizon dedups its retransmit) or was never
// acked at all (and the exporter's spool will re-deliver it). See
// DESIGN.md §14 for the restore invariants.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// ErrCorrupt is wrapped by every decode error caused by a malformed,
// truncated, or checksum-failed encoding (as opposed to I/O errors).
var ErrCorrupt = errors.New("snapshot: corrupt encoding")

// magic identifies a dcsketch snapshot file; version gates the layout.
const (
	magic   = "DCSS"
	version = 1
)

// Section kinds. A kind never changes meaning; new state grows new kinds.
const (
	secSketch   = 1 // opaque dcs/tdcs MarshalBinary bytes
	secMonitor  = 2 // monitor EWMA baseline/variance profiles + update count
	secSessions = 3 // sessionTable replay horizons, MRU first
	secCUSUM    = 4 // SYN/FIN CUSUM tripwire state
	secSpool    = 5 // relay upstream exporter spool (pre-encoded frames)
	secKindMax  = secSpool
)

// Decode-time sanity caps: far above any real deployment, low enough that
// a hostile length cannot drive a huge allocation before bounds checks.
const (
	maxProfiles   = 1 << 22  // monitor dest profiles
	maxSessions   = 1 << 22  // session horizons
	maxSpool      = 1 << 22  // spooled batches
	maxPayloadLen = 64 << 20 // one spooled frame payload (mirrors wire.MaxFrameSize)
)

// State is the root recovery object. Nil section pointers (and a nil/empty
// Sketch) mean "not captured"; Decode returns exactly the sections present.
type State struct {
	// Sketch is the opaque dcs/tdcs binary encoding of the monitor
	// sketch's counter arrays. The occupancy index is not serialized — it
	// is recomputed on decode by dcs.UnmarshalBinary.
	Sketch   []byte
	Monitor  *MonitorState
	Sessions *SessionsState
	CUSUM    *CUSUMState
	Spool    *SpoolState
}

// MonitorState is the monitor's detection state outside the sketch: the
// per-destination EWMA baseline/variance profiles, the set of destinations
// currently held in alert hysteresis, and the update count driving the
// check cadence.
type MonitorState struct {
	Updates  uint64
	Profiles []DestProfile
	Alerting []uint32
}

// DestProfile is one destination's frozen-baseline EWMA pair.
type DestProfile struct {
	Dest uint32
	Mean float64
	Var  float64
}

// SessionsState carries the server's replay-dedup horizons in
// most-recently-used-first order, so a restore under a smaller MaxSessions
// keeps exactly the horizons the old server would have kept.
type SessionsState struct {
	Horizons []SessionHorizon
}

// SessionHorizon is one exporter session's highest accepted sequence
// number — the dedup promise the server made by acking it.
type SessionHorizon struct {
	ID      uint64
	LastSeq uint64
}

// CUSUMState mirrors cusum.State (kept separate so this package stays a
// leaf both cmd tiers and internal packages can import).
type CUSUMState struct {
	Y         float64
	Alarms    uint64
	Fbar      float64
	Syn       int64
	Fin       int64
	Intervals uint64
	InAlarm   bool
}

// SpoolState is a relay's upstream delivery state: its pinned session, the
// next sequence number it would assign, and every not-yet-acked batch with
// its pre-encoded MsgSeqUpdates payload, oldest first.
type SpoolState struct {
	SessionID uint64
	NextSeq   uint64
	Batches   []SpoolBatch
}

// SpoolBatch is one spooled upstream batch. Payload is the complete
// MsgSeqUpdates frame payload as originally encoded; Updates is the flow
// count inside it (carried for ledger accounting, not re-derived).
type SpoolBatch struct {
	Seq     uint64
	Updates uint32
	Payload []byte
}

// Encode appends the snapshot encoding of st to dst and returns the
// extended slice.
func Encode(dst []byte, st *State) []byte {
	dst = append(dst, magic...)
	dst = append(dst, version)
	if len(st.Sketch) > 0 {
		dst = appendSection(dst, secSketch, st.Sketch)
	}
	if st.Monitor != nil {
		dst = appendSection(dst, secMonitor, encodeMonitor(nil, st.Monitor))
	}
	if st.Sessions != nil {
		dst = appendSection(dst, secSessions, encodeSessions(nil, st.Sessions))
	}
	if st.CUSUM != nil {
		dst = appendSection(dst, secCUSUM, encodeCUSUM(nil, st.CUSUM))
	}
	if st.Spool != nil {
		dst = appendSection(dst, secSpool, encodeSpool(nil, st.Spool))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// Decode parses a snapshot encoding produced by Encode. It never panics on
// hostile input: every length is bounds-checked before allocation and the
// checksum is verified before any section is parsed.
func Decode(data []byte) (*State, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal header", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	if string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:len(magic)])
	}
	if v := body[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, version)
	}
	rest := body[len(magic)+1:]
	st := &State{}
	var seen [secKindMax + 1]bool
	for len(rest) > 0 {
		kind := rest[0]
		rest = rest[1:]
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return nil, fmt.Errorf("%w: section %d length overruns the file", ErrCorrupt, kind)
		}
		payload := rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
		if kind < 1 || kind > secKindMax {
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, kind)
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrCorrupt, kind)
		}
		seen[kind] = true
		var err error
		switch kind {
		case secSketch:
			st.Sketch = append([]byte(nil), payload...)
		case secMonitor:
			st.Monitor, err = decodeMonitor(payload)
		case secSessions:
			st.Sessions, err = decodeSessions(payload)
		case secCUSUM:
			st.CUSUM, err = decodeCUSUM(payload)
		case secSpool:
			st.Spool, err = decodeSpool(payload)
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// appendSection appends one kind-tagged, length-prefixed section.
func appendSection(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func encodeMonitor(dst []byte, m *MonitorState) []byte {
	dst = binary.AppendUvarint(dst, m.Updates)
	dst = binary.AppendUvarint(dst, uint64(len(m.Profiles)))
	for _, p := range m.Profiles {
		dst = binary.LittleEndian.AppendUint32(dst, p.Dest)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Var))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Alerting)))
	for _, dest := range m.Alerting {
		dst = binary.LittleEndian.AppendUint32(dst, dest)
	}
	return dst
}

func decodeMonitor(p []byte) (*MonitorState, error) {
	d := decoder{buf: p, what: "monitor"}
	m := &MonitorState{Updates: d.uvarint()}
	nprof := d.uvarint()
	if nprof > maxProfiles || nprof*20 > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: monitor section claims %d profiles in %d bytes", ErrCorrupt, nprof, len(d.buf))
	}
	if nprof > 0 {
		m.Profiles = make([]DestProfile, nprof)
	}
	for i := range m.Profiles {
		m.Profiles[i] = DestProfile{
			Dest: d.u32(),
			Mean: math.Float64frombits(d.u64()),
			Var:  math.Float64frombits(d.u64()),
		}
	}
	nalert := d.uvarint()
	if nalert > maxProfiles || nalert*4 > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: monitor section claims %d alerting dests in %d bytes", ErrCorrupt, nalert, len(d.buf))
	}
	if nalert > 0 {
		m.Alerting = make([]uint32, nalert)
	}
	for i := range m.Alerting {
		m.Alerting[i] = d.u32()
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeSessions(dst []byte, s *SessionsState) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Horizons)))
	for _, h := range s.Horizons {
		dst = binary.LittleEndian.AppendUint64(dst, h.ID)
		dst = binary.AppendUvarint(dst, h.LastSeq)
	}
	return dst
}

func decodeSessions(p []byte) (*SessionsState, error) {
	d := decoder{buf: p, what: "sessions"}
	n := d.uvarint()
	if n > maxSessions || n*9 > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: sessions section claims %d horizons in %d bytes", ErrCorrupt, n, len(d.buf))
	}
	s := &SessionsState{}
	if n > 0 {
		s.Horizons = make([]SessionHorizon, n)
	}
	for i := range s.Horizons {
		s.Horizons[i] = SessionHorizon{ID: d.u64(), LastSeq: d.uvarint()}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

func encodeCUSUM(dst []byte, c *CUSUMState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Y))
	dst = binary.AppendUvarint(dst, c.Alarms)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Fbar))
	dst = binary.AppendVarint(dst, c.Syn)
	dst = binary.AppendVarint(dst, c.Fin)
	dst = binary.AppendUvarint(dst, c.Intervals)
	var inAlarm byte
	if c.InAlarm {
		inAlarm = 1
	}
	return append(dst, inAlarm)
}

func decodeCUSUM(p []byte) (*CUSUMState, error) {
	d := decoder{buf: p, what: "cusum"}
	c := &CUSUMState{
		Y:         math.Float64frombits(d.u64()),
		Alarms:    d.uvarint(),
		Fbar:      math.Float64frombits(d.u64()),
		Syn:       d.varint(),
		Fin:       d.varint(),
		Intervals: d.uvarint(),
	}
	switch d.u8() {
	case 0:
	case 1:
		c.InAlarm = true
	default:
		d.fail()
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

func encodeSpool(dst []byte, s *SpoolState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.SessionID)
	dst = binary.AppendUvarint(dst, s.NextSeq)
	dst = binary.AppendUvarint(dst, uint64(len(s.Batches)))
	for _, b := range s.Batches {
		dst = binary.AppendUvarint(dst, b.Seq)
		dst = binary.AppendUvarint(dst, uint64(b.Updates))
		dst = binary.AppendUvarint(dst, uint64(len(b.Payload)))
		dst = append(dst, b.Payload...)
	}
	return dst
}

func decodeSpool(p []byte) (*SpoolState, error) {
	d := decoder{buf: p, what: "spool"}
	s := &SpoolState{SessionID: d.u64(), NextSeq: d.uvarint()}
	n := d.uvarint()
	if n > maxSpool || n*3 > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: spool section claims %d batches in %d bytes", ErrCorrupt, n, len(d.buf))
	}
	if n > 0 {
		s.Batches = make([]SpoolBatch, n)
	}
	for i := range s.Batches {
		seq := d.uvarint()
		nup := d.uvarint()
		plen := d.uvarint()
		if nup > math.MaxUint32 || plen > maxPayloadLen {
			d.fail()
			break
		}
		s.Batches[i] = SpoolBatch{Seq: seq, Updates: uint32(nup), Payload: d.bytes(int(plen))}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// decoder is a tiny cursor over one section payload: reads clamp on
// underrun and latch the failed flag, so decode loops need a single error
// check at the end (finish) instead of one per field.
type decoder struct {
	buf    []byte
	what   string
	failed bool
}

func (d *decoder) fail() { d.failed = true }

func (d *decoder) u8() byte {
	if d.failed || len(d.buf) < 1 {
		d.failed = true
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.failed || len(d.buf) < 4 {
		d.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.failed || len(d.buf) < 8 {
		d.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.failed {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.failed {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.failed || n < 0 || len(d.buf) < n {
		d.failed = true
		return nil
	}
	v := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) finish() error {
	if d.failed {
		return fmt.Errorf("%w: truncated %s section", ErrCorrupt, d.what)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s section", ErrCorrupt, len(d.buf), d.what)
	}
	return nil
}

// WriteFile atomically replaces path with the encoding of st: the bytes are
// written to a temp file in the same directory, fsynced, renamed over path,
// and the directory is fsynced so the rename itself is durable. A crash at
// any point leaves either the old snapshot or the new one, never a torn mix.
func WriteFile(path string, st *State) error {
	data := Encode(nil, st)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is best-effort: some filesystems refuse it, and
		// the rename is already atomic — this only narrows the window in
		// which a whole-machine crash forgets the newest snapshot.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadFile loads and decodes the snapshot at path. A missing file is
// reported via os.IsNotExist / errors.Is(err, os.ErrNotExist) so boot code
// can distinguish "fresh start" from "corrupt state".
func ReadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
