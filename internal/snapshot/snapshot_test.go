package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fullState returns a State exercising every section with non-trivial
// values, including an empty spool payload.
func fullState() *State {
	return &State{
		Sketch: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01},
		Monitor: &MonitorState{
			Updates: 123456789,
			Profiles: []DestProfile{
				{Dest: 0x0a000001, Mean: 12.5, Var: 3.25},
				{Dest: 0xc0a80101, Mean: 0, Var: 0},
			},
			Alerting: []uint32{0x0a000001},
		},
		Sessions: &SessionsState{
			Horizons: []SessionHorizon{
				{ID: 0xfeedface, LastSeq: 42},
				{ID: 1, LastSeq: 0},
				{ID: ^uint64(0), LastSeq: 1 << 40},
			},
		},
		Spool: &SpoolState{
			SessionID: 7777,
			NextSeq:   101,
			Batches: []SpoolBatch{
				{Seq: 99, Updates: 256, Payload: []byte{1, 2, 3}},
				{Seq: 100, Updates: 0, Payload: nil},
			},
		},
	}
}

func TestRoundTripFull(t *testing.T) {
	want := fullState()
	got, err := Decode(Encode(nil, want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRoundTripPartial(t *testing.T) {
	cases := []struct {
		name string
		st   *State
	}{
		{"empty", &State{}},
		{"sketch-only", &State{Sketch: []byte{1, 2, 3}}},
		{"sessions-only", &State{Sessions: &SessionsState{}}},
		{"monitor-empty", &State{Monitor: &MonitorState{Updates: 5}}},
		{"spool-empty", &State{Spool: &SpoolState{SessionID: 1, NextSeq: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(Encode(nil, tc.st))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.st) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.st)
			}
		})
	}
}

// TestDecodeRejectsCorruption flips, truncates, and extends an encoding and
// requires every mutation to fail with ErrCorrupt — the checksum makes any
// single-byte corruption detectable.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(nil, fullState())
	if _, err := Decode(data); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: got err %v, want ErrCorrupt", i, err)
		}
	}
	for _, n := range []int{0, 1, len(magic), len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d: got err %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsDuplicateSection(t *testing.T) {
	// Hand-build: header + two sessions sections + checksum.
	body := []byte(magic)
	body = append(body, version)
	sec := encodeSessions(nil, &SessionsState{Horizons: []SessionHorizon{{ID: 1, LastSeq: 2}}})
	body = appendSection(body, secSessions, sec)
	body = appendSection(body, secSessions, sec)
	if _, err := Decode(appendChecksum(body)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate section: got err %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	body := []byte(magic)
	body = append(body, version)
	body = appendSection(body, secKindMax+1, []byte{1, 2, 3})
	if _, err := Decode(appendChecksum(body)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("unknown section kind accepted")
	}
}

// TestDecodeRejectsRetiredCUSUMSection checks that a file carrying section
// kind 4, the retired CUSUM state, is refused with a named error rather
// than read as some other state or skipped: no daemon ever wrote one.
func TestDecodeRejectsRetiredCUSUMSection(t *testing.T) {
	body := []byte(magic)
	body = append(body, version)
	body = appendSection(body, secSessions, encodeSessions(nil, &SessionsState{}))
	body = appendSection(body, secRetiredCUSUM, make([]byte, 21))
	_, err := Decode(appendChecksum(body))
	if !errors.Is(err, ErrRetiredSection) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section 4: got err %v, want ErrRetiredSection and ErrCorrupt", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	body := []byte(magic)
	body = append(body, version+1)
	if _, err := Decode(appendChecksum(body)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("future version accepted")
	}
}

// TestDecodeRejectsHugeCounts feeds sections whose element counts vastly
// exceed their payload, which must fail the pre-allocation bound check.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // uvarint ~1<<63
	for _, kind := range []byte{secMonitor, secSessions} {
		body := []byte(magic)
		body = append(body, version)
		body = appendSection(body, kind, huge)
		if _, err := Decode(appendChecksum(body)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d: huge count accepted", kind)
		}
	}
	// Spool counts sit after a fixed header.
	body := []byte(magic)
	body = append(body, version)
	spool := make([]byte, 8) // sessionID
	spool = append(spool, 1) // nextSeq
	spool = append(spool, huge...)
	body = appendSection(body, secSpool, spool)
	if _, err := Decode(appendChecksum(body)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("spool: huge count accepted")
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dcsketch.snap")
	want := fullState()
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Overwrite must be atomic: the new state replaces the old in one
	// rename, and no temp files are left behind.
	want2 := &State{Sketch: []byte{9, 9, 9}}
	if err := WriteFile(path, want2); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Fatalf("overwrite mismatch: got %+v", got2)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "dcsketch.snap" {
		t.Fatalf("directory not clean after atomic writes: %v", ents)
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
}

// appendChecksum finishes a hand-built body the way Encode does.
func appendChecksum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}
