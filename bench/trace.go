package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// clock is a run's time base: every schedule, span and sample is an offset
// from t0, taken before the first set-up.
type clock struct {
	t0 time.Time
	// gen is when traffic starts (the end of set-up). The measured window
	// is [warm, warm+window). Spans are recorded for calls starting in
	// [traceFrom, end), which is empty on an untraced run.
	gen, warm, window, traceFrom, end time.Duration
	// The measured window is sampled every tick, about a second, ticks
	// times.
	tick  time.Duration
	ticks int
}

// tickOf is the index of the measured tick that holds d.
func (c *clock) tickOf(d time.Duration) int { return min(int((d-c.warm)/c.tick), c.ticks-1) }

func (c *clock) now() time.Duration { return time.Since(c.t0) }

func (c *clock) measured(d time.Duration) bool { return d >= c.warm && d < c.warm+c.window }

func (c *clock) traced(d time.Duration) bool { return d >= c.traceFrom && d < c.end }

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the run's clock started; Ref is the batch, flood or
// call index the span belongs to; Due, when set, is when the call was
// scheduled.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Ref    uint64 `json:"ref"`
	Due    int64  `json:"due,omitempty"`
}

// Span owners: each goroutine records into its own tracer, whose ids carry
// the owner in their top 32 bits, so ids are unique without coordination.
const (
	ownerMain  = 0
	ownerGen   = 1 // + edge
	ownerQuery = 8
	ownerAcks  = 16 // + edge
	// windowSpan and replaySpan are the first two spans the main tracer
	// opens: the roots of the traced window and of the per-layer replay.
	windowSpan = 1
	replaySpan = 2
)

// tracer keeps one goroutine's spans in memory until the run ends.
type tracer struct {
	next  uint64
	spans []span
}

func newTracer(owner uint64) *tracer { return &tracer{next: owner << 32} }

// open reserves a span id, so children can name their parent before the
// parent has ended.
func (t *tracer) open() uint64 {
	t.next++
	return t.next
}

func (t *tracer) close(id uint64, name string, parent uint64, start, end time.Duration, ref uint64, due time.Duration) {
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end), Ref: ref, Due: int64(due)})
}

func (t *tracer) add(name string, parent uint64, start, end time.Duration, ref uint64) {
	t.close(t.open(), name, parent, start, end, ref, 0)
}

// timeCall records fn as one span and returns its error.
func (t *tracer) timeCall(clk *clock, name string, parent, ref uint64, fn func() error) error {
	start := clk.now()
	err := fn()
	t.add(name, parent, start, clk.now(), ref)
	return err
}

// windowCounters are process-wide readings over one window (see sample).
type windowCounters struct {
	Seconds    float64 `json:"seconds"`
	Updates    uint64  `json:"updates"`
	CPUNs      int64   `json:"cpu_ns"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	MutexNs    int64   `json:"mutex_wait_ns"`
	// StealTicks and CPUTicks are the host's stolen and total CPU time
	// across the VM's CPUs (/proc/stat clock ticks).
	StealTicks int64 `json:"steal_ticks"`
	CPUTicks   int64 `json:"cpu_ticks"`
}

// counters are the traced run's counts, recorded at the same boundaries as
// the spans: together the two are everything the per-layer metrics are
// computed from.
type counters struct {
	// Replayed is the size of the live set each replayed layer absorbed.
	Replayed      int   `json:"replayed_updates"`
	WireBytes     int   `json:"wire_bytes"`
	MarshalBytes  int   `json:"marshal_bytes"`
	SnapshotBytes int   `json:"snapshot_bytes"`
	SpoolSum      int64 `json:"spool_depth_sum"`
	SpoolSamples  int64 `json:"spool_depth_samples"`
	// RelaySpoolMax is the deepest relay upstream spool the query probe saw
	// in the traced half; 0 without a relay.
	RelaySpoolMax int `json:"relay_spool_max"`
	// Delivery ledgers over the whole run, summed over every exporter (the
	// edges and the relay's upstream) and every server (global and relay).
	SendAttempts     uint64 `json:"send_attempts"`
	Retransmits      uint64 `json:"retransmits"`
	SeqBatches       uint64 `json:"seq_batches"`
	DuplicateBatches uint64 `json:"duplicate_batches"`
	// Untraced and Traced cover the two windows of a traced run.
	Untraced windowCounters `json:"untraced"`
	Traced   windowCounters `json:"traced"`
	// Recall and RelError score the single-box reference's top-10 against
	// the exact distinct-source counts of the live set.
	Recall   float64 `json:"recall_at_10"`
	RelError float64 `json:"rel_error_at_10"`
}

// spanFile is the JSON document a traced run writes (see README.md).
type spanFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Spans    []span   `json:"spans"`
	Counters counters `json:"counters"`
}

// writeSpans writes the span file into dir and returns its path.
func writeSpans(dir string, doc *spanFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", doc.Workload, doc.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
