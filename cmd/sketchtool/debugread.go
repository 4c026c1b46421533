// Offline readers for the daemon's debug surface: `sketchtool trace` renders
// a saved /debug/trace dump as a human-readable batch timeline, and
// `sketchtool explain` turns a saved /debug/alerts entry into the story of
// why the alert fired. Both read files (or stdin) rather than the network, so
// they work on artifacts captured from an incident after the daemon is gone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dcsketch/internal/debugapi"
	"dcsketch/internal/tracelog"
)

// readInput reads the named file, or stdin when path is "-".
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sketchtool trace", flag.ContinueOnError)
	file := fs.String("f", "-", "JSON dump saved from /debug/trace (- for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := readInput(*file)
	if err != nil {
		return err
	}
	var d tracelog.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	printTimeline(w, d)
	return nil
}

func printTimeline(w io.Writer, d tracelog.Dump) {
	fmt.Fprintf(w, "batch session=%d seq=%d: %d events\n", d.Session, d.Seq, len(d.Events))
	if len(d.Events) == 0 {
		fmt.Fprintln(w, "  (no recorded events — outside the recorder's retention window, or never seen)")
		return
	}
	base := d.Events[0].TSNS
	for _, ev := range d.Events {
		fmt.Fprintf(w, "  +%10.3fms  %-22s writer=%-4d n=%-6d aux=%d\n",
			float64(ev.TSNS-base)/1e6, ev.Stage, ev.Writer, ev.N, ev.Aux)
	}
	fmt.Fprintf(w, "verdict: %s\n", verdict(d))
}

// verdict compresses a batch timeline into its delivery story: the sentence
// an operator wants first, with the events above as supporting detail.
func verdict(d tracelog.Dump) string {
	var sends, cuts, dups, applies, srvAcks, expAcks, sheds, drops int
	for _, ev := range d.Events {
		switch tracelog.StageFromString(ev.Stage) {
		case tracelog.StageExportSend:
			sends++
		case tracelog.StageExportCut:
			cuts++
		case tracelog.StageServerDup:
			dups++
		case tracelog.StageServerApply:
			applies++
		case tracelog.StageServerAck:
			srvAcks++
		case tracelog.StageExportAck:
			expAcks++
		case tracelog.StageExportShed:
			sheds++
		case tracelog.StageExportDrop:
			drops++
		}
	}
	switch {
	case applies > 1:
		return fmt.Sprintf("APPLIED %d TIMES — exactly-once contract violated", applies)
	case applies == 1 && (sends > 1 || dups > 0):
		return fmt.Sprintf("delivered exactly once after %d send attempts (%d connection cuts); %d replays suppressed by dedup",
			sends, cuts, dups)
	case applies == 1:
		return "delivered and applied on the first attempt"
	case sheds > 0:
		return "shed from the full spool before any send attempt"
	case drops > 0:
		return fmt.Sprintf("rejected by the server on send attempt %d and dropped, not retried", sends)
	case sends > 0:
		return fmt.Sprintf("in flight: %d send attempts, not yet applied (server side not in this dump?)", sends)
	default:
		return "enqueued only — never reached the wire in the recorded window"
	}
}

func runExplain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sketchtool explain", flag.ContinueOnError)
	file := fs.String("f", "-", "JSON saved from /debug/alerts or /debug/alerts/{id} (- for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := readInput(*file)
	if err != nil {
		return err
	}
	// Accept both shapes: the ledger list and a single entry.
	var list []debugapi.EvidenceRecord
	if err := json.Unmarshal(data, &list); err != nil {
		var one debugapi.EvidenceRecord
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			return fmt.Errorf("alert evidence: %w", err)
		}
		list = []debugapi.EvidenceRecord{one}
	}
	if len(list) == 0 {
		fmt.Fprintln(w, "no alert evidence recorded")
		return nil
	}
	for _, ev := range list {
		explainEvidence(w, ev)
	}
	return nil
}

func explainEvidence(w io.Writer, ev debugapi.EvidenceRecord) {
	fmt.Fprintf(w, "alert #%d: victim %s at stream position %d\n", ev.ID, ev.Victim, ev.AtUpdate)
	fmt.Fprintf(w, "  decision: estimated %d distinct sources >= trigger %.1f (baseline %.1f, variance %.1f)\n",
		ev.Estimated, ev.Trigger, ev.Baseline, ev.BaselineVar)
	decodes := ev.DecodeSingletons + ev.DecodeFailures
	rate := 0.0
	if decodes > 0 {
		rate = 100 * float64(ev.DecodeSingletons) / float64(decodes)
	}
	fmt.Fprintf(w, "  sketch:   %d queries, %.1f%% singleton decode rate, sample level %d (size %d), %d rebuilds\n",
		ev.SketchQueries, rate, ev.SampleLevel, ev.SampleSize, ev.Rebuilds)
	if ev.CUSUMThreshold != 0 {
		agrees := "quiet — victim-specific anomaly without aggregate SYN/FIN imbalance"
		if ev.CUSUMAlarm {
			agrees = "in alarm — aggregate view corroborates the sketch"
		}
		fmt.Fprintf(w, "  cusum:    statistic %.2f vs threshold %.2f (%s)\n",
			ev.CUSUMValue, ev.CUSUMThreshold, agrees)
	}
	if ev.DecodeRejects > 0 {
		fmt.Fprintf(w, "  ingest:   %d frames rejected before decode by onset — estimates may undercount\n",
			ev.DecodeRejects)
	}
	if len(ev.TopK) > 0 {
		fmt.Fprintf(w, "  top-%d at onset:\n", len(ev.TopK))
		for i, e := range ev.TopK {
			marker := ""
			if e.Dest == ev.Dest {
				marker = "  << alerting"
			}
			fmt.Fprintf(w, "    %2d. %-15s ~%d distinct sources%s\n", i+1, e.Victim, e.Estimated, marker)
		}
	}
}
