package tracelog

import (
	"testing"
	"time"
)

// TestStageStringRoundTrip pins every stage's name and its inversion.
func TestStageStringRoundTrip(t *testing.T) {
	seen := map[string]Stage{}
	for s := Stage(0); s < stageCount; s++ {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("stages %d and %d share name %q", prev, s, name)
		}
		seen[name] = s
		if got := StageFromString(name); got != s {
			t.Fatalf("StageFromString(%q) = %d, want %d", name, got, s)
		}
	}
	if got := StageFromString("no-such-stage"); got != StageInvalid {
		t.Fatalf("StageFromString(bogus) = %d, want StageInvalid", got)
	}
	if got := Stage(250).String(); got != "unknown" {
		t.Fatalf("out-of-range Stage.String() = %q, want unknown", got)
	}
}

// TestRecordAndTrace writes a small batch story and reads it back merged and
// ordered.
func TestRecordAndTrace(t *testing.T) {
	rec := New(Options{SlotsPerRing: 16})
	rec.SetNow(1000)
	exp := rec.Acquire(0)
	// The writer tag keeps all 32 bits: connection ids are a uint32.
	const srvWriter = 1<<24 | 3
	srv := rec.Acquire(srvWriter)

	exp.Record(StageExportEnqueue, 7, 1, 128, 1)
	exp.Record(StageExportSend, 7, 1, 128, 1)
	srv.Record(StageServerDecode, 7, 1, 128, 0)
	srv.Record(StageServerApply, 7, 1, 128, 0)
	srv.Record(StageServerAck, 7, 1, 0, 1)
	exp.Record(StageExportAck, 7, 1, 0, 1)
	// Unrelated batch must not show up in the trace.
	exp.Record(StageExportEnqueue, 7, 2, 64, 2)

	evs := rec.Trace(7, 1, nil)
	want := []Stage{StageExportEnqueue, StageExportSend, StageServerDecode,
		StageServerApply, StageServerAck, StageExportAck}
	if len(evs) != len(want) {
		t.Fatalf("Trace returned %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Stage != want[i] {
			t.Fatalf("event %d stage = %v, want %v", i, ev.Stage, want[i])
		}
		if i > 0 && evs[i-1].GSeq >= ev.GSeq {
			t.Fatalf("events not gseq-ordered at %d: %d then %d", i, evs[i-1].GSeq, ev.GSeq)
		}
		if ev.TS != 1000 {
			t.Fatalf("event %d ts = %d, want coarse clock reading 1000", i, ev.TS)
		}
	}
	if evs[2].Writer != srvWriter {
		t.Fatalf("server event writer = %d, want %d", evs[2].Writer, srvWriter)
	}
	if all := rec.Events(nil); len(all) != 7 {
		t.Fatalf("Events returned %d, want 7", len(all))
	}
}

// TestAcquireReleaseRecycles proves rings recycle through the free list,
// history is retained across recycling, and the retention cap drops the
// oldest released ring.
func TestAcquireReleaseRecycles(t *testing.T) {
	rec := New(Options{SlotsPerRing: 16, MaxRings: 2})
	a := rec.Acquire(1)
	a.Record(StageServerConnOpen, 0, 0, 0, 1)
	a.Record(StageServerDecode, 9, 5, 10, 0)
	rec.Release(a)

	b := rec.Acquire(2)
	if b != a {
		t.Fatalf("Acquire did not recycle the released ring")
	}
	if b.Writer() != 2 {
		t.Fatalf("recycled ring writer = %d, want 2", b.Writer())
	}
	// History survives the recycle: the old batch is still traceable.
	if evs := rec.Trace(9, 5, nil); len(evs) != 1 {
		t.Fatalf("pre-recycle event lost: got %d events", len(evs))
	}
	rec.Release(b)

	// Overflow the retention cap with distinct rings.
	r1, r2, r3 := rec.Acquire(3), rec.Acquire(4), rec.Acquire(5)
	if rec.RingCount() != 3 {
		t.Fatalf("ring count = %d, want 3", rec.RingCount())
	}
	rec.Release(r1)
	rec.Release(r2)
	rec.Release(r3) // cap 2: r1 (oldest released) must be dropped
	if rec.RingCount() != 2 {
		t.Fatalf("ring count after cap = %d, want 2", rec.RingCount())
	}
	for _, rg := range rec.snapshotRings() {
		if rg == r1 {
			t.Fatalf("oldest released ring survived the retention cap")
		}
	}
}

// TestClockAdvances starts the ticker clock and waits for movement.
func TestClockAdvances(t *testing.T) {
	rec := New(Options{})
	if rec.WallBase() != 0 {
		t.Fatalf("wall base before StartClock = %d, want 0", rec.WallBase())
	}
	rec.StartClock(time.Millisecond)
	defer rec.StopClock()
	rec.StartClock(time.Millisecond) // idempotent
	if rec.WallBase() == 0 {
		t.Fatalf("wall base not set by StartClock")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.Now() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("coarse clock never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	rec.StopClock()
	rec.StopClock() // idempotent after stop
}
