package tracelog

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// TestParseTraceQuery pins accepted and rejected query shapes.
func TestParseTraceQuery(t *testing.T) {
	good := []struct {
		raw          string
		session, seq uint64
	}{
		{"session=1&seq=2", 1, 2},
		{"seq=2&session=1", 1, 2},
		{"session=0&seq=0", 0, 0},
		{"session=18446744073709551615&seq=7", ^uint64(0), 7},
		{"&session=1&&seq=2&", 1, 2}, // empty pairs are ignored
	}
	for _, c := range good {
		s, q, err := ParseTraceQuery(c.raw)
		if err != nil {
			t.Fatalf("ParseTraceQuery(%q): %v", c.raw, err)
		}
		if s != c.session || q != c.seq {
			t.Fatalf("ParseTraceQuery(%q) = (%d, %d), want (%d, %d)", c.raw, s, q, c.session, c.seq)
		}
	}
	bad := []string{
		"",
		"session=1",
		"seq=2",
		"session=1&seq=2&session=3",
		"session=1&seq=2&seq=3",
		"session=1&seq=2&k=3",
		"session=-1&seq=2",
		"session=0x10&seq=2",
		"session=&seq=2",
		"session=18446744073709551616&seq=0", // 2^64 overflows
		"session",
		"session=1&seq=1 ",
	}
	for _, raw := range bad {
		if _, _, err := ParseTraceQuery(raw); err == nil {
			t.Fatalf("ParseTraceQuery(%q) accepted, want error", raw)
		}
	}
}

// TestTraceHandler drives the handler end to end and checks the Dump shape.
func TestTraceHandler(t *testing.T) {
	rec := New(Options{SlotsPerRing: 16})
	rec.SetNow(5)
	ring := rec.Acquire(2)
	ring.Record(StageServerDecode, 11, 3, 64, 0)
	ring.Record(StageServerApply, 11, 3, 64, 0)
	ring.Record(StageServerDecode, 11, 4, 1, 0) // other batch

	h := TraceHandler(rec)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?session=11&seq=3", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, body %q", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatalf("unmarshal dump: %v", err)
	}
	if d.Session != 11 || d.Seq != 3 || len(d.Events) != 2 {
		t.Fatalf("dump = %+v, want session 11 seq 3 with 2 events", d)
	}
	if d.Events[0].Stage != "server-decode" || d.Events[1].Stage != "server-apply" {
		t.Fatalf("stages = %q, %q", d.Events[0].Stage, d.Events[1].Stage)
	}
	if ev := d.Events[0].Event(); ev.Stage != StageServerDecode || ev.N != 64 || ev.TS != 5 {
		t.Fatalf("EventRecord.Event round trip = %+v", ev)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?session=11", nil))
	if rr.Code != 400 {
		t.Fatalf("missing seq: status = %d, want 400", rr.Code)
	}
}

// FuzzDecodeTraceQuery hammers the pure query parser: it must never panic,
// and on success the parsed pair must survive a rebuild/reparse round trip.
func FuzzDecodeTraceQuery(f *testing.F) {
	f.Add("session=1&seq=2")
	f.Add("seq=2&session=1")
	f.Add("session=18446744073709551615&seq=0")
	f.Add("session=1&seq=2&session=3")
	f.Add("a=b")
	f.Add("session==1&seq=2")
	f.Add("%73ession=1")
	f.Add(strings.Repeat("&", 100))
	f.Fuzz(func(t *testing.T, raw string) {
		session, seq, err := ParseTraceQuery(raw)
		if err != nil {
			return
		}
		// Round trip: a canonical rebuild must parse to the same pair.
		rebuilt := "session=" + strconv.FormatUint(session, 10) + "&seq=" + strconv.FormatUint(seq, 10)
		s2, q2, err2 := ParseTraceQuery(rebuilt)
		if err2 != nil || s2 != session || q2 != seq {
			t.Fatalf("round trip %q -> %q failed: (%d,%d,%v)", raw, rebuilt, s2, q2, err2)
		}
		// Accepted queries must also be well-formed by net/url's book, so
		// the handler and any reverse proxy agree on the semantics.
		vals, uerr := url.ParseQuery(raw)
		if uerr == nil {
			// Compare numerically: the raw value may carry leading zeros.
			if got, perr := strconv.ParseUint(vals.Get("session"), 10, 64); perr != nil || got != session {
				t.Fatalf("net/url sees session=%q, parser saw %d (raw %q)", vals.Get("session"), session, raw)
			}
			if got, perr := strconv.ParseUint(vals.Get("seq"), 10, 64); perr != nil || got != seq {
				t.Fatalf("net/url sees seq=%q, parser saw %d (raw %q)", vals.Get("seq"), seq, raw)
			}
		}
	})
}
