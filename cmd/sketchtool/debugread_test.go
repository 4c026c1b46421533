package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsketch/internal/debugapi"
	"dcsketch/internal/tracelog"
)

func writeJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceSubcommand renders a retransmission timeline and checks the
// verdict tells the exactly-once story.
func TestTraceSubcommand(t *testing.T) {
	rec := tracelog.New(tracelog.Options{})
	rec.SetNow(500)
	exp := rec.Acquire(0)
	srv := rec.Acquire(2)
	exp.Record(tracelog.StageExportEnqueue, 9, 4, 100, 1)
	exp.Record(tracelog.StageExportSend, 9, 4, 100, 1)
	exp.Record(tracelog.StageExportCut, 9, 0, 0, 1) // mid-batch kill
	exp.Record(tracelog.StageExportSend, 9, 4, 100, 2)
	srv.Record(tracelog.StageServerDecode, 9, 4, 100, 0)
	srv.Record(tracelog.StageServerApply, 9, 4, 100, 0)
	srv.Record(tracelog.StageServerAck, 9, 4, 0, 4)
	exp.Record(tracelog.StageExportSend, 9, 4, 100, 3) // ack raced the resend
	srv.Record(tracelog.StageServerDup, 9, 4, 0, 4)
	exp.Record(tracelog.StageExportAck, 9, 4, 0, 4)

	// The cut is session-scoped (seq 0), so fold it in by hand the way the
	// chaos harness does: trace the batch, then merge cut events.
	evs := rec.Events(nil)
	var kept []tracelog.Event
	for _, ev := range evs {
		if ev.Session == 9 {
			kept = append(kept, ev)
		}
	}
	dump := tracelog.NewDump(9, 4, rec.WallBase(), kept)
	path := writeJSON(t, dump)

	var out strings.Builder
	if err := run([]string{"trace", "-f", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"session=9 seq=4",
		"export-send",
		"export-cut",
		"server-dup",
		"delivered exactly once after 3 send attempts",
		"1 replays suppressed by dedup",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q:\n%s", want, got)
		}
	}

	// A batch the server answered with MsgError is dropped, not retried.
	exp.Record(tracelog.StageExportEnqueue, 9, 5, 100, 1)
	exp.Record(tracelog.StageExportSend, 9, 5, 100, 1)
	exp.Record(tracelog.StageExportDrop, 9, 5, 100, 1)
	var rejected []tracelog.Event
	for _, ev := range rec.Events(nil) {
		if ev.Session == 9 && ev.Seq == 5 {
			rejected = append(rejected, ev)
		}
	}
	path = writeJSON(t, tracelog.NewDump(9, 5, rec.WallBase(), rejected))
	out.Reset()
	if err := run([]string{"trace", "-f", path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "rejected by the server on send attempt 1 and dropped"; !strings.Contains(out.String(), want) {
		t.Errorf("rejected-batch trace missing %q:\n%s", want, out.String())
	}
}

// TestTraceSubcommandEmpty reports a useful message for an unseen batch.
func TestTraceSubcommandEmpty(t *testing.T) {
	path := writeJSON(t, tracelog.Dump{Session: 1, Seq: 2})
	var out strings.Builder
	if err := run([]string{"trace", "-f", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no recorded events") {
		t.Fatalf("empty dump not explained:\n%s", out.String())
	}
}

// TestExplainSubcommand renders both the single-entry and list shapes.
func TestExplainSubcommand(t *testing.T) {
	ev := debugapi.EvidenceRecord{
		ID: 3, Victim: "10.0.0.1", Dest: 0x0A000001,
		Estimated: 4200, Baseline: 60, BaselineVar: 25, Trigger: 300, AtUpdate: 99999,
		TopK: []debugapi.TopKEntry{
			{Victim: "10.0.0.1", Dest: 0x0A000001, Estimated: 4200},
			{Victim: "10.0.0.2", Dest: 0x0A000002, Estimated: 120},
		},
		SketchQueries: 12, DecodeSingletons: 950, DecodeFailures: 50,
		SampleLevel: 2, SampleSize: 130,
		CUSUMValue: 3.1, CUSUMThreshold: 2.0, CUSUMAlarm: true,
		DecodeRejects: 4,
	}
	for name, payload := range map[string]any{
		"single": ev,
		"list":   []debugapi.EvidenceRecord{ev},
	} {
		path := writeJSON(t, payload)
		var out strings.Builder
		if err := run([]string{"explain", "-f", path}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := out.String()
		for _, want := range []string{
			"alert #3: victim 10.0.0.1",
			"estimated 4200 distinct sources >= trigger 300.0",
			"95.0% singleton decode rate",
			"statistic 3.10 vs threshold 2.00",
			"corroborates",
			"4 frames rejected",
			"<< alerting",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, got)
			}
		}
	}
}

// TestExplainSubcommandBadInput rejects garbage with an error.
func TestExplainSubcommandBadInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"explain", "-f", path}, &strings.Builder{}); err == nil {
		t.Fatal("explain accepted malformed JSON")
	}
	if err := run([]string{"trace", "-f", path}, &strings.Builder{}); err == nil {
		t.Fatal("trace accepted malformed JSON")
	}
}
