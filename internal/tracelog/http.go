package tracelog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Dump is the JSON shape served by /debug/trace and read back by
// `sketchtool trace`: one batch's merged, gseq-ordered timeline.
type Dump struct {
	// Session and Seq echo the queried batch identity.
	Session uint64 `json:"session"`
	Seq     uint64 `json:"seq"`
	// ClockBaseUnixNS anchors every event's TSNS offset to wall time; 0 when
	// the recorder clock was never started.
	ClockBaseUnixNS int64 `json:"clock_base_unix_ns"`
	// Events is the timeline, oldest first.
	Events []EventRecord `json:"events"`
}

// EventRecord is one Event rendered for JSON.
type EventRecord struct {
	GSeq    uint64 `json:"gseq"`
	TSNS    uint64 `json:"ts_ns"`
	Session uint64 `json:"session"`
	Seq     uint64 `json:"seq"`
	Stage   string `json:"stage"`
	Writer  uint32 `json:"writer"`
	N       uint32 `json:"n"`
	Aux     uint64 `json:"aux"`
}

// Record converts an EventRecord back to an Event (stage name round-trips
// through StageFromString). Used by the offline readers.
func (er EventRecord) Event() Event {
	return Event{
		GSeq:    er.GSeq,
		TS:      er.TSNS,
		Session: er.Session,
		Seq:     er.Seq,
		Stage:   StageFromString(er.Stage),
		Writer:  er.Writer,
		N:       er.N,
		Aux:     er.Aux,
	}
}

// NewDump renders a gseq-sorted event slice as a Dump.
func NewDump(session, seq uint64, wallBase int64, evs []Event) Dump {
	d := Dump{Session: session, Seq: seq, ClockBaseUnixNS: wallBase, Events: make([]EventRecord, 0, len(evs))}
	for _, ev := range evs {
		d.Events = append(d.Events, EventRecord{
			GSeq:    ev.GSeq,
			TSNS:    ev.TS,
			Session: ev.Session,
			Seq:     ev.Seq,
			Stage:   ev.Stage.String(),
			Writer:  ev.Writer,
			N:       ev.N,
			Aux:     ev.Aux,
		})
	}
	return d
}

// ParseTraceQuery parses a /debug/trace raw query of the form
// "session=<dec>&seq=<dec>" (either order, both required, decimal uint64,
// no duplicates, no unknown keys). It is deliberately a pure function over
// the raw string so FuzzDecodeTraceQuery can hammer it without an HTTP
// server in the loop.
func ParseTraceQuery(raw string) (session, seq uint64, err error) {
	var haveSession, haveSeq bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return 0, 0, fmt.Errorf("trace query: %q is not key=value", pair)
		}
		v, perr := strconv.ParseUint(val, 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("trace query %s: %w", key, perr)
		}
		switch key {
		case "session":
			if haveSession {
				return 0, 0, fmt.Errorf("trace query: duplicate session")
			}
			session, haveSession = v, true
		case "seq":
			if haveSeq {
				return 0, 0, fmt.Errorf("trace query: duplicate seq")
			}
			seq, haveSeq = v, true
		default:
			return 0, 0, fmt.Errorf("trace query: unknown key %q", key)
		}
	}
	if !haveSession || !haveSeq {
		return 0, 0, fmt.Errorf("trace query: need both session= and seq=")
	}
	return session, seq, nil
}

// TraceHandler serves /debug/trace?session=&seq= as a JSON Dump from rec.
func TraceHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		session, seq, err := ParseTraceQuery(req.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		evs := rec.Trace(session, seq, nil)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(NewDump(session, seq, rec.WallBase(), evs)); err != nil {
			// The response is already streaming; nothing useful to send.
			return
		}
	})
}
