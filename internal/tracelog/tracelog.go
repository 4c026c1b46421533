// Package tracelog is the dcsketch flight recorder: fixed-size, per-stage
// event records in ring buffers that trace an update batch through the
// whole pipeline — exporter enqueue/spool/send/ack, server
// decode/dedup/apply/ack, and query visibility — keyed by the wire
// protocol's existing (session, seq) batch identity, so provenance needs no
// wire-format change.
//
// # Design
//
// A record costs its ring's lock, a global sequence claim, a clock read and
// one Event store, and no allocation: the Record path is proven by the
// allocfree analyzer and ground-truthed by cmd/perfcheck (see perfpins.txt),
// so the recorder is safe to leave enabled in production.
// Timestamps come from a coarse monotonic clock — a single atomic
// nanosecond counter advanced every 100µs by a recorder-owned ticker
// goroutine — so the record path reads one word instead of calling the time
// package (DESIGN.md §13.1 says why the ticker stays). A global sequence
// number (Event.GSeq) gives a total order across rings even when the coarse
// clock lumps events into one tick.
//
// Each Ring is a mutex-guarded slice of Events. Any goroutine may Record
// into a ring and any number may snapshot it concurrently; in practice each
// ring has one writer (a connection handler, or the exporter under its own
// mutex), so the ring's lock is uncontended except against a snapshot.
// Record claims the global sequence under the ring's lock, so a ring's slots
// are in gseq order, and a snapshot copies the retained window under the
// same lock: wraparound evicts the oldest records and never tears one —
// TestRingWraparoundNeverTears holds this as a property under concurrency.
//
// The Recorder owns the rings, the clock, and the global sequence; Trace
// merges per-ring snapshots into the (session, seq) timeline served by
// cmd/ddosmond's /debug/trace endpoint and read offline by sketchtool trace.
package tracelog

// Stage identifies where in the pipeline an event was recorded. The zero
// value is reserved: StageFromString returns it for an unknown name.
type Stage uint8

const (
	// StageInvalid is the reserved zero value.
	StageInvalid Stage = iota

	// Exporter (edge) lifecycle, recorded under the exporter mutex.

	// StageExportEnqueue: a batch entered the spool (aux = spool depth after).
	StageExportEnqueue
	// StageExportShed: the spool was full and its oldest batch was dropped;
	// the event is keyed by the shed batch (aux = spool depth after).
	StageExportShed
	// StageExportSend: a send attempt for the spool head (aux = attempt count).
	StageExportSend
	// StageExportAck: the server acked through this batch (aux = acked seq).
	StageExportAck
	// StageExportDrop: the server rejected the batch with an in-band
	// MsgError, so it was dropped instead of retried (aux = attempt count).
	StageExportDrop
	// StageExportPrune: the hello handshake's replay horizon showed the
	// server already holds this spooled batch (aux = horizon).
	StageExportPrune
	// StageExportDial: a dial finished (seq 0; aux 1 on success, 0 on failure).
	StageExportDial
	// StageExportHello: hello handshake completed (seq 0; aux = echoed horizon).
	StageExportHello
	// StageExportCut: a live connection was torn down after a transport
	// failure (seq 0; aux = reconnect count so far).
	StageExportCut

	// Server (daemon) lifecycle, recorded by the per-connection handler.

	// StageServerConnOpen: a client connection was accepted (aux = conn id).
	StageServerConnOpen
	// StageServerConnClose: the connection handler returned (aux = conn id).
	StageServerConnClose
	// StageServerDecode: a MsgSeqUpdates frame decoded (n = update count).
	StageServerDecode
	// StageServerDecodeReject: a frame failed to decode (aux = reject code).
	StageServerDecodeReject
	// StageServerDup: dedup suppressed a replayed batch (aux = session horizon).
	StageServerDup
	// StageServerApply: the batch was applied to the monitor (n = update
	// count).
	StageServerApply
	// StageServerAck: the ack for this batch was written back (aux = seq).
	StageServerAck
	// StageServerQuery: a top-k query was served on this connection
	// (session/seq 0; n = k).
	StageServerQuery

	stageCount // number of stages, for bounds and tests
)

// Reject codes carried in StageServerDecodeReject's Aux word.
const (
	// RejectDecode: the frame payload failed to decode.
	RejectDecode uint64 = 1
	// RejectNoHello: a sequenced batch arrived before the MsgHello handshake.
	RejectNoHello uint64 = 2
)

// stageNames is indexed by Stage.
var stageNames = [stageCount]string{
	StageInvalid:            "invalid",
	StageExportEnqueue:      "export-enqueue",
	StageExportShed:         "export-shed",
	StageExportSend:         "export-send",
	StageExportAck:          "export-ack",
	StageExportDrop:         "export-drop",
	StageExportPrune:        "export-prune",
	StageExportDial:         "export-dial",
	StageExportHello:        "export-hello",
	StageExportCut:          "export-cut",
	StageServerConnOpen:     "server-conn-open",
	StageServerConnClose:    "server-conn-close",
	StageServerDecode:       "server-decode",
	StageServerDecodeReject: "server-decode-reject",
	StageServerDup:          "server-dup",
	StageServerApply:        "server-apply",
	StageServerAck:          "server-ack",
	StageServerQuery:        "server-query",
}

// String returns the stable kebab-case stage name used in JSON output and by
// the sketchtool trace reader.
func (s Stage) String() string {
	if s >= stageCount {
		return "unknown"
	}
	return stageNames[s]
}

// StageFromString inverts String; it returns StageInvalid for unknown names.
func StageFromString(name string) Stage {
	for i, n := range stageNames {
		if n == name {
			return Stage(i)
		}
	}
	return StageInvalid
}

// Event is one flight-recorder record.
type Event struct {
	// GSeq is the recorder-global sequence number: a total order over every
	// event in every ring of one Recorder.
	GSeq uint64
	// TS is the coarse monotonic timestamp, nanoseconds since the recorder
	// clock's base instant (0 when the clock was never started).
	TS uint64
	// Session and Seq key the batch the event belongs to; both are 0 for
	// connection-scoped events (dial, hello, conn open/close, query).
	Session uint64
	Seq     uint64
	// Stage says where in the pipeline the event was recorded.
	Stage Stage
	// Writer tags the recording ring (connection id, 0 for the exporter).
	Writer uint32
	// N is the stage-specific record count (updates decoded, staged, ...).
	N uint32
	// Aux is the stage-specific extra word documented per Stage constant.
	Aux uint64
}
