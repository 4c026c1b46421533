package debugapi

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/monitor"
	"dcsketch/internal/stream"
)

func floodedMonitor(t *testing.T) *monitor.Monitor {
	t.Helper()
	m, err := monitor.New(monitor.Config{
		Sketch:        dcs.Config{Buckets: 256, Seed: 5},
		CheckInterval: 500,
		MinFrequency:  100,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetDecodeRejectProbe(func() uint64 { return 7 })
	attack, err := (stream.SYNFlood{Victim: 443, Zombies: 3000, Seed: 6}).Updates()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range attack {
		m.Update(u.Src, u.Dst, int64(u.Delta))
	}
	return m
}

func TestAlertsHandlerListAndByID(t *testing.T) {
	h := AlertsHandler(floodedMonitor(t))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("list status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("list content type %q", ct)
	}
	var list []EvidenceRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list) == 0 {
		t.Fatal("flood produced no evidence")
	}
	ev := list[0]
	if ev.Dest != 443 || ev.Victim != "0.0.1.187" {
		t.Fatalf("evidence victim = %q dest = %d, want dest 443", ev.Victim, ev.Dest)
	}
	if float64(ev.Estimated) < ev.Trigger {
		t.Fatalf("estimate %d below trigger %v", ev.Estimated, ev.Trigger)
	}
	if len(ev.TopK) == 0 || ev.SketchQueries == 0 {
		t.Fatalf("evidence missing snapshot payloads: %+v", ev)
	}
	if ev.DecodeRejects != 7 {
		t.Fatalf("decode rejects = %d, want probe value 7", ev.DecodeRejects)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts/1", nil))
	if rec.Code != 200 {
		t.Fatalf("by-id status %d", rec.Code)
	}
	var one EvidenceRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("decode by-id: %v", err)
	}
	if one.ID != 1 || one.Dest != ev.Dest {
		t.Fatalf("by-id returned %+v, want entry %+v", one, ev)
	}
}

func TestAlertsHandlerNotFound(t *testing.T) {
	h := AlertsHandler(floodedMonitor(t))
	for _, path := range []string{
		"/debug/alerts/999999",
		"/debug/alerts/abc",
		"/debug/alerts/-1",
		"/debug/alerts/+1",
		"/debug/alerts/99999999999999999999999999", // uint64 overflow
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Errorf("GET %s status = %d, want 404", path, rec.Code)
		}
	}
}
