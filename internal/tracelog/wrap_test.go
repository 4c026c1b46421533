package tracelog

import (
	"fmt"
	"sync"
	"testing"
)

// TestRingWraparoundNeverTears is the recorder's central safety property:
// while two writers share one ring and lap it thousands of times,
// concurrent snapshots may miss evicted records but every record they do
// return must be exactly one a writer wrote — field-for-field — and a
// snapshot lists its records in gseq order, each writer's in the order it
// wrote them. Run under -race this also proves the ring's lock discipline.
func TestRingWraparoundNeverTears(t *testing.T) {
	rec := New(Options{SlotsPerRing: 32})
	ring := rec.Acquire(9)

	const writes = 50000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers snapshot continuously while the writers wrap the ring ~3000x.
	const readers = 4
	errs := make(chan string, readers+1)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Event
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = ring.Snapshot(buf[:0])
				if msg := checkSnapshot(buf); msg != "" {
					errs <- msg
					return
				}
			}
		}()
	}

	// Two writers: each encodes every field as a deterministic function of
	// its id and its own write ordinal, so readers can verify records
	// without shared state. Writer 1 alone drives the clock, so its records
	// carry its ordinal's timestamp exactly.
	var writers sync.WaitGroup
	for w := uint64(1); w <= 2; w++ {
		writers.Add(1)
		go func(w uint64) {
			defer writers.Done()
			for i := uint64(1); i <= writes; i++ {
				if w == 1 {
					rec.SetNow(i * 3)
				}
				key := w<<32 | i
				ring.Record(stageFor(i), key, key*11, uint32(i%4096), key*13)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Settled state: exactly the newest 32 records, in order, untorn.
	evs := ring.Snapshot(nil)
	if len(evs) != 32 {
		t.Fatalf("settled snapshot has %d records, want 32", len(evs))
	}
	if msg := checkSnapshot(evs); msg != "" {
		t.Fatalf("settled snapshot: %s", msg)
	}
	for i, ev := range evs {
		if want := uint64(2*writes - 32 + i + 1); ev.GSeq != want {
			t.Fatalf("settled record %d gseq = %d, want %d", i, ev.GSeq, want)
		}
	}
}

// stageFor derives a valid non-zero stage from a write ordinal.
func stageFor(i uint64) Stage {
	return Stage(1 + i%(uint64(stageCount)-1))
}

// checkSnapshot verifies one snapshot of the two-writer ring: every record
// untorn, gseq strictly increasing, each writer's ordinals strictly
// increasing, and timestamps never going backwards (the clock only moves
// forward and the ring's lock serializes the records).
func checkSnapshot(evs []Event) string {
	var last [3]uint64 // last ordinal seen per writer id
	for k, ev := range evs {
		if msg := checkEvent(ev); msg != "" {
			return fmt.Sprintf("record %d: %s (%+v)", k, msg, ev)
		}
		if k == 0 {
			continue
		}
		prev := evs[k-1]
		if ev.GSeq <= prev.GSeq {
			return fmt.Sprintf("gseq %d follows %d: slots out of gseq order", ev.GSeq, prev.GSeq)
		}
		if ev.TS < prev.TS {
			return fmt.Sprintf("timestamp %d follows %d", ev.TS, prev.TS)
		}
		w, i := ev.Session>>32, ev.Session&0xFFFFFFFF
		if i <= last[w] {
			return fmt.Sprintf("writer %d ordinal %d follows %d", w, i, last[w])
		}
		last[w] = i
	}
	return ""
}

// checkEvent verifies the cross-field invariant encoded by the writers:
// every field must describe the same (writer, ordinal) pair carried in
// Session.
func checkEvent(ev Event) string {
	if ev.GSeq == 0 {
		return "zero gseq"
	}
	key := ev.Session
	w, i := key>>32, key&0xFFFFFFFF
	if w < 1 || w > 2 || i == 0 {
		return "session is no writer's key: torn record"
	}
	if ev.Stage != stageFor(i) {
		return "stage does not match the key: torn record"
	}
	if ev.Seq != key*11 || ev.Aux != key*13 {
		return "payload does not match the key: torn record"
	}
	if ev.N != uint32(i%4096) {
		return "count does not match the key: torn record"
	}
	if ev.Writer != 9 {
		return "writer tag corrupted"
	}
	if w == 1 && ev.TS != i*3 {
		return "timestamp does not match writer 1's ordinal: torn record"
	}
	return ""
}

// BenchmarkRecord measures the record path: one writer on its own ring,
// and two writers, each on its own ring of one shared recorder, recording
// at once (the server's per-connection rings share the global sequence
// word). One op is one record by every writer.
func BenchmarkRecord(b *testing.B) {
	for _, writers := range []int{1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			rec := New(Options{})
			rings := make([]*Ring, writers)
			for w := range rings {
				rings[w] = rec.Acquire(uint32(w))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, rg := range rings {
				wg.Add(1)
				go func(rg *Ring) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						rg.Record(StageServerApply, 1, uint64(i), 512, 0)
					}
				}(rg)
			}
			wg.Wait()
		})
	}
}
