package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot hardens the snapshot decoder against hostile files: a
// collector restores this state at boot with full trust, so the decoder
// must never panic, over-allocate, or accept a torn encoding. Any input
// that does decode must survive an encode/decode round trip losslessly and
// re-encode to a fixed point, pinning the encoder and decoder to the same
// layout.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(Encode(nil, &State{}))
	f.Add(Encode(nil, &State{Sketch: []byte{1, 2, 3}}))
	f.Add(Encode(nil, &State{
		Monitor:  &MonitorState{Updates: 7, Profiles: []DestProfile{{Dest: 1, Mean: 2, Var: 3}}, Alerting: []uint32{1}},
		Sessions: &SessionsState{Horizons: []SessionHorizon{{ID: 5, LastSeq: 9}}},
		Spool:    &SpoolState{SessionID: 1, NextSeq: 4, Batches: []SpoolBatch{{Seq: 3, Updates: 2, Payload: []byte{0xaa}}}},
	}))
	// A file with the retired section kind 4 (the CUSUM state) must be
	// rejected, however the fuzzer mutates its payload.
	retired := appendSection(append([]byte(magic), version), secRetiredCUSUM, make([]byte, 21))
	f.Add(appendChecksum(retired))
	f.Add([]byte("DCSS\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(nil, st)
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip lost state:\n in  %+v\n out %+v", st, st2)
		}
		if re2 := Encode(nil, st2); !bytes.Equal(re2, re) {
			t.Fatalf("encoding is not a fixed point:\n 1st %x\n 2nd %x", re, re2)
		}
	})
}
