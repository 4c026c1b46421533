package wire

import (
	"bufio"
	"bytes"
	"testing"
)

func FuzzDecodeUpdates(f *testing.F) {
	f.Add(AppendUpdates(nil, []Update{{1, 2, 1}, {3, 4, -1}}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, err := DecodeUpdates(data)
		if err != nil {
			return
		}
		// Valid decodes must re-encode to an equivalent decode.
		again, err := DecodeUpdates(AppendUpdates(nil, ups))
		if err != nil || len(again) != len(ups) {
			t.Fatalf("re-decode failed: %v", err)
		}
		for i := range ups {
			if ups[i] != again[i] {
				t.Fatalf("update %d changed: %+v vs %+v", i, ups[i], again[i])
			}
		}
	})
}

func FuzzDecodeTopKReply(f *testing.F) {
	f.Add(AppendTopKReply(nil, []TopKEntry{{1, 10}}))
	f.Add([]byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeTopKReply(data)
		if err != nil {
			return
		}
		again, err := DecodeTopKReply(AppendTopKReply(nil, entries))
		if err != nil || len(again) != len(entries) {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgError, nil)
	_ = WriteFrame(&buf, MsgSeqUpdates, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < len(data)+2; i++ {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("frame of %d bytes accepted (type %d)", len(payload), typ)
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, 1))
	f.Add(AppendHello(nil, ^uint64(0)))
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, err := DecodeHello(data)
		if err != nil {
			return
		}
		if id == 0 {
			t.Fatal("zero session ID decoded without error")
		}
		again, err := DecodeHello(AppendHello(nil, id))
		if err != nil || again != id {
			t.Fatalf("re-decode: (%d, %v), want %d", again, err, id)
		}
	})
}

// FuzzDecodeUpdatesInto differentially checks the zero-copy decoder against
// DecodeUpdates on arbitrary payloads: identical error/no-error outcome and
// identical records, even when the destination arrives dirty (stale records
// from a previous frame past its length, as the pooled server scratch does).
func FuzzDecodeUpdatesInto(f *testing.F) {
	f.Add(AppendUpdates(nil, []Update{{1, 2, 1}, {3, 4, -1}}))
	f.Add(AppendUpdates(nil, []Update{{1, 2, 1}, {3, 4, -1}})[:5])            // truncated mid-record
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized count
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeUpdates(data)
		dirty := make([]Update, 0, 8)
		dirty = append(dirty, Update{9, 9, 9}, Update{8, 8, 8})
		got, gotErr := DecodeUpdatesInto(data, dirty[:0])
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: DecodeUpdates=%v DecodeUpdatesInto=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("update %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzDecodeSeqUpdatesInto is FuzzDecodeUpdatesInto for the sequenced form.
func FuzzDecodeSeqUpdatesInto(f *testing.F) {
	f.Add(AppendSeqUpdates(nil, 1, []Update{{1, 2, 1}, {3, 4, -1}}))
	f.Add(AppendSeqUpdates(nil, 7, []Update{{1, 2, 1}})[:4])                        // truncated mid-record
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized count
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		wantSeq, want, wantErr := DecodeSeqUpdates(data)
		dirty := make([]Update, 0, 8)
		dirty = append(dirty, Update{9, 9, 9})
		gotSeq, got, gotErr := DecodeSeqUpdatesInto(data, dirty[:0])
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: DecodeSeqUpdates=%v DecodeSeqUpdatesInto=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if gotSeq != wantSeq || len(got) != len(want) {
			t.Fatalf("(%d, %d records) vs (%d, %d records)", gotSeq, len(got), wantSeq, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("update %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})
}

func FuzzDecodeSeqUpdates(f *testing.F) {
	f.Add(AppendSeqUpdates(nil, 1, []Update{{1, 2, 1}, {3, 4, -1}}))
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, ups, err := DecodeSeqUpdates(data)
		if err != nil {
			return
		}
		if seq == 0 {
			t.Fatal("zero sequence decoded without error")
		}
		seq2, again, err := DecodeSeqUpdates(AppendSeqUpdates(nil, seq, ups))
		if err != nil || seq2 != seq || len(again) != len(ups) {
			t.Fatalf("re-decode failed: (%d, %d updates, %v)", seq2, len(again), err)
		}
	})
}
