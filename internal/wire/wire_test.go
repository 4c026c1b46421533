package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, MsgSeqUpdates, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgError, nil); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	typ, got, err := ReadFrame(r)
	if err != nil || typ != MsgSeqUpdates || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: (%v,%q,%v)", typ, got, err)
	}
	typ, got, err = ReadFrame(r)
	if err != nil || typ != MsgError || len(got) != 0 {
		t.Fatalf("frame 2: (%v,%q,%v)", typ, got, err)
	}
	if _, _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgSeqUpdates, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{1, 4, 7, len(data) - 1} {
		if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data[:cut]))); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFrameSizeBound(t *testing.T) {
	// A header claiming a gigantic payload must be rejected without
	// allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(MsgSeqUpdates)}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, MsgSeqUpdates, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write err = %v", err)
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	err := quick.Check(func(srcs, dsts []uint32, deltas []int8) bool {
		n := len(srcs)
		if len(dsts) < n {
			n = len(dsts)
		}
		if len(deltas) < n {
			n = len(deltas)
		}
		in := make([]Update, n)
		for i := range in {
			in[i] = Update{Src: srcs[i], Dst: dsts[i], Delta: int64(deltas[i])}
		}
		out, err := DecodeUpdates(AppendUpdates(nil, in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeUpdatesRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty-nonzero-count": {5},
		"huge count":          {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated update":    append([]byte{1}, 1, 2, 3),
		"trailing bytes":      append(AppendUpdates(nil, []Update{{1, 2, 1}}), 0xee),
	}
	for name, payload := range cases {
		if _, err := DecodeUpdates(payload); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTopKQueryRoundTrip(t *testing.T) {
	for _, k := range []int{0, 1, 10, 100000} {
		got, err := DecodeTopKQuery(AppendTopKQuery(nil, k))
		if err != nil || got != k {
			t.Fatalf("k=%d: (%d,%v)", k, got, err)
		}
	}
	if _, err := DecodeTopKQuery(nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := DecodeTopKQuery(append(AppendTopKQuery(nil, 1), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeTopKQuery(AppendTopKQuery(nil, 1<<30)); err == nil {
		t.Error("implausible k accepted")
	}
}

func TestTopKReplyRoundTrip(t *testing.T) {
	in := []TopKEntry{{Dest: 0xdeadbeef, F: 12345}, {Dest: 0, F: 0}, {Dest: 7, F: 1 << 40}}
	out, err := DecodeTopKReply(AppendTopKReply(nil, in))
	if err != nil || len(out) != len(in) {
		t.Fatalf("(%v, %v)", out, err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, in[i], out[i])
		}
	}
	if _, err := DecodeTopKReply([]byte{9}); err == nil {
		t.Error("truncated reply accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 42, 1 << 63, ^uint64(0)} {
		got, err := DecodeHello(AppendHello(nil, id))
		if err != nil || got != id {
			t.Fatalf("id=%d: (%d,%v)", id, got, err)
		}
	}
	cases := map[string][]byte{
		"empty":          nil,
		"zero session":   AppendHello(nil, 0),
		"bad version":    append([]byte{2}, AppendHello(nil, 7)[1:]...),
		"short session":  {1, 1, 2, 3},
		"trailing bytes": append(AppendHello(nil, 7), 0xee),
		"version only":   {1},
	}
	for name, payload := range cases {
		if _, err := DecodeHello(payload); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 999, 1 << 50} {
		got, err := DecodeHelloAck(AppendHelloAck(nil, seq))
		if err != nil || got != seq {
			t.Fatalf("seq=%d: (%d,%v)", seq, got, err)
		}
	}
	if _, err := DecodeHelloAck(nil); err == nil {
		t.Error("empty hello ack accepted")
	}
	if _, err := DecodeHelloAck(append(AppendHelloAck(nil, 1), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSeqUpdatesRoundTrip(t *testing.T) {
	in := []Update{{Src: 1, Dst: 2, Delta: 1}, {Src: 3, Dst: 4, Delta: -1}}
	for _, seq := range []uint64{1, 128, 1 << 40} {
		gotSeq, out, err := DecodeSeqUpdates(AppendSeqUpdates(nil, seq, in))
		if err != nil || gotSeq != seq || len(out) != len(in) {
			t.Fatalf("seq=%d: (%d,%v,%v)", seq, gotSeq, out, err)
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("update %d: %+v vs %+v", i, in[i], out[i])
			}
		}
	}
	if _, _, err := DecodeSeqUpdates(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, _, err := DecodeSeqUpdates(AppendSeqUpdates(nil, 0, in)); err == nil {
		t.Error("zero sequence accepted")
	}
	if _, _, err := DecodeSeqUpdates(append(AppendSeqUpdates(nil, 5, in), 0xee)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSeqAckRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 77, 1 << 60} {
		got, err := DecodeSeqAck(AppendSeqAck(nil, seq))
		if err != nil || got != seq {
			t.Fatalf("seq=%d: (%d,%v)", seq, got, err)
		}
	}
	if _, err := DecodeSeqAck(nil); err == nil {
		t.Error("empty seq ack accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	// Every defined type must have a distinct non-"unknown" telemetry label;
	// the reserved slots of retired frames and one past the last must not.
	reserved := map[MsgType]bool{1: true, 4: true, 5: true}
	seen := map[string]bool{}
	for typ := MsgType(1); int(typ) < MsgTypeCount; typ++ {
		s := typ.String()
		if reserved[typ] {
			if s != "unknown" {
				t.Fatalf("reserved type %d label %q, want unknown", typ, s)
			}
			continue
		}
		if s == "unknown" || seen[s] {
			t.Fatalf("type %d label %q (unknown or duplicate)", typ, s)
		}
		seen[s] = true
	}
	if MsgType(MsgTypeCount).String() != "unknown" {
		t.Fatalf("type %d should be unknown", MsgTypeCount)
	}
}

func TestEmptyBatches(t *testing.T) {
	out, err := DecodeUpdates(AppendUpdates(nil, nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: (%v,%v)", out, err)
	}
	entries, err := DecodeTopKReply(AppendTopKReply(nil, nil))
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty reply: (%v,%v)", entries, err)
	}
}

// TestReadFrameIntoMatchesReadFrame replays random byte streams — valid
// frame sequences, truncations, and garbage — through both readers and
// requires identical frame sequences and error outcomes. The Into reader
// reuses one arena across the whole stream, the way the server's ingest
// loop does.
func TestReadFrameIntoMatchesReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		var stream []byte
		for i := rng.Intn(5); i > 0; i-- {
			payload := make([]byte, rng.Intn(300))
			for j := range payload {
				payload[j] = byte(rng.Intn(256))
			}
			var err error
			stream, err = AppendFrame(stream, MsgType(1+rng.Intn(MsgTypeCount-1)), payload)
			if err != nil {
				t.Fatal(err)
			}
		}
		switch trial % 3 {
		case 1: // truncate
			if len(stream) > 0 {
				stream = stream[:rng.Intn(len(stream))]
			}
		case 2: // append garbage
			for i := rng.Intn(8); i > 0; i-- {
				stream = append(stream, byte(rng.Intn(256)))
			}
		}

		ref := bufio.NewReader(bytes.NewReader(stream))
		into := bufio.NewReader(bytes.NewReader(stream))
		var arena []byte
		for {
			wantTyp, wantPayload, wantErr := ReadFrame(ref)
			var gotTyp MsgType
			var gotPayload []byte
			var gotErr error
			gotTyp, gotPayload, arena, gotErr = ReadFrameInto(into, arena)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d: errors diverge: %v vs %v", trial, wantErr, gotErr)
			}
			if wantErr != nil {
				if errors.Is(wantErr, io.EOF) != errors.Is(gotErr, io.EOF) {
					t.Fatalf("trial %d: EOF-ness diverges: %v vs %v", trial, wantErr, gotErr)
				}
				break
			}
			if gotTyp != wantTyp || !bytes.Equal(gotPayload, wantPayload) {
				t.Fatalf("trial %d: frame diverges: (%v, %d bytes) vs (%v, %d bytes)",
					trial, gotTyp, len(gotPayload), wantTyp, len(wantPayload))
			}
		}
	}
}

// TestAppendFrameMatchesWriteFrame checks the two framers emit identical
// bytes and agree on the size bound.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	check := func(typ byte, payload []byte) bool {
		var buf bytes.Buffer
		wErr := WriteFrame(&buf, MsgType(typ), payload)
		appended, aErr := AppendFrame(nil, MsgType(typ), payload)
		if (wErr == nil) != (aErr == nil) {
			return false
		}
		if wErr != nil {
			return true
		}
		return bytes.Equal(buf.Bytes(), appended)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendFrame(nil, MsgSeqUpdates, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized append err = %v", err)
	}
	// Appending onto an existing prefix must leave it intact.
	out, err := AppendFrame([]byte("prefix"), MsgError, []byte{1, 2})
	if err != nil || !bytes.HasPrefix(out, []byte("prefix")) {
		t.Fatalf("prefix clobbered: %q (%v)", out, err)
	}
}

// TestDecodeUpdatesIntoReusesCapacity pins the zero-allocation contract the
// server's pooled scratch relies on: decoding into a slice with sufficient
// capacity must not allocate and must return the same backing array.
func TestDecodeUpdatesIntoReusesCapacity(t *testing.T) {
	batch := make([]Update, 100)
	for i := range batch {
		batch[i] = Update{Src: uint32(i), Dst: uint32(i * 7), Delta: int64(i%5 - 2)}
	}
	payload := AppendUpdates(nil, batch)
	scratch := make([]Update, 0, len(batch))
	allocs := testing.AllocsPerRun(100, func() {
		got, err := DecodeUpdatesInto(payload, scratch[:0])
		if err != nil || len(got) != len(batch) {
			panic("bad decode")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeUpdatesInto allocates %.1f times with warm scratch", allocs)
	}
	got, err := DecodeUpdatesInto(payload, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("warm decode moved to a new backing array")
	}
}
