// Package export is the fault-tolerant edge exporter, the one sender of
// flow updates to the monitor daemon: it alone writes the MsgHello
// handshake and the sequenced MsgSeqUpdates batches. An Exporter absorbs
// the faults of an unreliable network: updates are enqueued into a bounded
// in-memory spool and a background loop ships them with automatic
// reconnection, jittered exponential backoff, and per-attempt timeouts.
//
// Delivery is exactly-once as long as the spool and the server's session
// table hold: every batch carries a session-scoped sequence number, the
// loop retransmits until the server acknowledges (at-least-once), and the
// server's per-session dedup table acks-without-applying anything at or
// below its replay horizon (idempotent replay). On reconnect the MsgHello
// handshake echoes that horizon, so batches whose ack was lost in a crash
// are pruned instead of resent.
//
// The spool bounds memory, not loss: when it fills, the oldest unacked
// batch is shed (drop-oldest — the freshest traffic is the most relevant
// to detection) and the drop is counted. A shed batch's sequence number is
// skipped forever; the server accepts sequence gaps for exactly this
// reason.
package export

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dcsketch/internal/hashing"
	"dcsketch/internal/snapshot"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// ErrClosed is returned by Export and Drain after Close.
var ErrClosed = errors.New("export: exporter closed")

// errRejected marks an in-band MsgError reply to a sequenced batch: the
// server understood the frame and refused it, so retrying the same bytes
// cannot succeed and the batch is dropped instead.
var errRejected = errors.New("export: batch rejected by server")

// Config parametrizes an Exporter. Only Addr is required.
type Config struct {
	// Addr is the monitor daemon's address.
	Addr string
	// Dial overrides the transport (the seam for fault injection and custom
	// networks); nil means TCP DialTimeout.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// AttemptTimeout bounds each round trip — handshake or batch — on a live
	// connection (default 10s). It is also how long Close may need to wrest
	// the loop off a dead peer.
	AttemptTimeout time.Duration
	// BaseBackoff and MaxBackoff bound the jittered exponential backoff
	// between failed attempts (defaults 50ms and 5s). The actual sleep is
	// uniform in [d/2, 3d/2) for the current step d, decorrelating a fleet
	// of exporters reconnecting after a shared outage.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// SpoolBatches bounds the in-memory spool (default 1024 batches); at
	// the bound the oldest unacked batch is shed.
	SpoolBatches int
	// SessionID identifies this exporter's replay session to the server; 0
	// (the reserved no-session value) draws a random one. Reusing an ID
	// across restarts resumes the session's replay horizon H: the server
	// acks every batch at or below H without applying it. Without a
	// restored spool (Restore) a pinned ID is therefore safe only for a
	// sender that re-sends the same batches in the same order, as a replay
	// of the same trace with the same batching does; any other sender has
	// its first H batches acked as already applied, and lost.
	SessionID uint64
	// Seed drives backoff jitter; 0 derives it from the session ID, so runs
	// with a pinned SessionID are fully deterministic.
	Seed uint64
	// Trace receives the exporter's flight-recorder events
	// (enqueue/shed/send/ack/prune/dial/cut, keyed by this session's
	// sequence numbers). Nil allocates a private recorder, readable via
	// Tracer; pass the daemon-wide recorder to merge the edge half of a
	// batch's story into /debug/trace.
	Trace *tracelog.Recorder
	// Restore seeds the exporter from a crash-safe spool snapshot captured
	// by SnapshotSpool: the replay session, its next sequence number, and
	// every still-unacked batch resume exactly where the dead process
	// stopped, so batches acked downstream by a relay before it crashed are
	// retransmitted upstream after restart instead of lost. The snapshot's
	// SessionID wins (it must, or the server's replay horizon would not
	// apply); setting a different non-zero SessionID alongside it is a
	// configuration error. Restored batches are counted as enqueued so the
	// ledger invariant (acked + dropped == enqueued when drained) holds for
	// the restarted process.
	Restore *snapshot.SpoolState
}

// Stats counts the exporter's delivery ledger. The invariant the chaos
// tests pin: SendAttempts == BatchesAcked + Retransmits whenever every
// enqueued batch has been acked (each batch's first attempt is not a
// retransmit, every later one is).
type Stats struct {
	// BatchesEnqueued and UpdatesEnqueued count Export calls admitted to
	// the spool.
	BatchesEnqueued, UpdatesEnqueued uint64
	// BatchesAcked and UpdatesAcked count batches confirmed applied by the
	// server (by MsgSeqAck, or pruned as already-applied by a MsgHello
	// echo).
	BatchesAcked, UpdatesAcked uint64
	// BatchesDropped and UpdatesDropped count spool sheds (drop-oldest
	// overflow) and server-rejected batches.
	BatchesDropped, UpdatesDropped uint64
	// SendAttempts counts MsgSeqUpdates round trips started; Retransmits
	// counts those that re-sent a batch already attempted at least once.
	SendAttempts, Retransmits uint64
	// Reconnects counts live connections torn down after a transport
	// failure; DialFailures counts connection attempts (dial or handshake)
	// that never yielded a usable session.
	Reconnects, DialFailures uint64
	// Hellos counts completed replay handshakes.
	Hellos uint64
	// SpoolDepth is the current spool occupancy; Connected reports whether
	// the loop holds a live connection.
	SpoolDepth int
	Connected  bool
}

// batch is one spooled, pre-encoded MsgSeqUpdates payload.
type batch struct {
	seq     uint64
	payload []byte
	n       int // update count, for the ledger
	// attempts counts sends started for this batch; mutated only by
	// Exporter.head under the exporter's mutex.
	attempts int
}

// Exporter is a fault-tolerant, spooling client for the monitor daemon.
// Safe for concurrent use.
type Exporter struct {
	cfg       Config
	sessionID uint64
	done      chan struct{}
	wg        sync.WaitGroup
	rec       *tracelog.Recorder

	// mu guards the spool and ledger below; cond (on mu) wakes the
	// delivery loop, its only waiter, when work arrives or Close begins.
	// Drain polls instead of waiting.
	mu   sync.Mutex
	cond *sync.Cond
	// spool holds unacked batches oldest-first. guarded by mu
	spool []*batch
	// nextSeq is the next sequence number to assign (sequences start at 1;
	// shed batches leave gaps). guarded by mu
	nextSeq uint64
	// closed marks Close having begun. guarded by mu
	closed bool
	// conn is the loop's live connection, tracked so Close can unblock a
	// stuck round trip. guarded by mu
	conn net.Conn
	// rng drives backoff jitter. guarded by mu
	rng *hashing.SplitMix64
	// stats is the delivery ledger (SpoolDepth/Connected derived). guarded by mu
	stats Stats
	// ring is the exporter's flight-recorder ring; the pointer is
	// immutable after New.
	ring *tracelog.Ring
}

// New starts an exporter for cfg; the background loop runs until Close.
func New(cfg Config) (*Exporter, error) {
	if cfg.Addr == "" {
		return nil, errors.New("export: Addr required")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.SpoolBatches <= 0 {
		cfg.SpoolBatches = 1024
	}
	id := cfg.SessionID
	if cfg.Restore != nil {
		if id != 0 && id != cfg.Restore.SessionID {
			return nil, fmt.Errorf("export: SessionID %d conflicts with restored session %d", id, cfg.Restore.SessionID)
		}
		if id = cfg.Restore.SessionID; id == 0 {
			return nil, errors.New("export: restored spool has no session id")
		}
	}
	for id == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("export: session id: %w", err)
		}
		id = binary.LittleEndian.Uint64(b[:])
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = hashing.Mix64(id)
	}
	rec := cfg.Trace
	if rec == nil {
		rec = tracelog.New(tracelog.Options{})
	}
	e := &Exporter{
		cfg:       cfg,
		sessionID: id,
		done:      make(chan struct{}),
		nextSeq:   1,
		rng:       hashing.NewSplitMix64(seed),
		rec:       rec,
	}
	e.ring = rec.Acquire(0)
	e.cond = sync.NewCond(&e.mu)
	if cfg.Restore != nil {
		if err := e.restoreSpool(cfg.Restore); err != nil {
			return nil, err
		}
	}
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// SessionID reports the replay session this exporter announces.
func (e *Exporter) SessionID() uint64 { return e.sessionID }

// Tracer returns the flight recorder holding this exporter's events — the
// one passed as Config.Trace, or the private recorder drawn when none was.
func (e *Exporter) Tracer() *tracelog.Recorder { return e.rec }

// Export enqueues one batch of updates for delivery. It never blocks on the
// network: if the spool is full, the oldest unacked batch is shed to make
// room (counted in BatchesDropped). Empty batches are a no-op.
func (e *Exporter) Export(updates []wire.Update) error {
	if len(updates) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	seq := e.nextSeq
	e.nextSeq++
	b := &batch{
		seq:     seq,
		payload: wire.AppendSeqUpdates(make([]byte, 0, seqUpdatesSize(len(updates))), seq, updates),
		n:       len(updates),
	}
	for len(e.spool) >= e.cfg.SpoolBatches {
		oldest := e.spool[0]
		e.spool = e.spool[1:]
		e.stats.BatchesDropped++
		e.stats.UpdatesDropped += uint64(oldest.n)
		e.ring.Record(tracelog.StageExportShed, e.sessionID, oldest.seq,
			uint32(oldest.n), uint64(len(e.spool)))
	}
	e.spool = append(e.spool, b)
	e.stats.BatchesEnqueued++
	e.stats.UpdatesEnqueued += uint64(len(updates))
	e.ring.Record(tracelog.StageExportEnqueue, e.sessionID, seq,
		uint32(b.n), uint64(len(e.spool)))
	e.cond.Broadcast()
	return nil
}

// seqUpdatesSize is the encoded size of a MsgSeqUpdates payload of n updates
// with ±1 deltas, the deltas flow updates carry: two uvarint headers
// (sequence and count) and 9 bytes per update (two fixed u32 addresses and a
// one-byte zigzag delta). Encoding into a buffer this size costs one
// allocation per batch; growing one from empty costs 13 at 512 updates.
func seqUpdatesSize(n int) int { return 2*binary.MaxVarintLen64 + 9*n }

// Drain blocks until every spooled batch has been acked or shed, the
// timeout elapses, or the exporter closes. It reports whether the spool
// emptied.
func (e *Exporter) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		e.mu.Lock()
		empty, closed := len(e.spool) == 0, e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if empty {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("export: drain timed out with %d batches spooled", e.Stats().SpoolDepth)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops the loop and closes any live connection. Spooled batches not
// yet acked are abandoned (Drain first for a clean flush). Safe to call
// once; Export and Drain fail with ErrClosed afterwards.
func (e *Exporter) Close() error {
	if e.beginClose() {
		close(e.done)
	}
	e.wg.Wait()
	return nil
}

// beginClose marks the exporter closed and severs any live connection,
// reporting whether this call was the one that closed it.
func (e *Exporter) beginClose() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.closed = true
	if e.conn != nil {
		_ = e.conn.Close() // unblock a round trip stuck on a dead peer
		e.conn = nil
	}
	e.cond.Broadcast()
	return true
}

// Stats returns a snapshot of the delivery ledger.
func (e *Exporter) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.SpoolDepth = len(e.spool)
	st.Connected = e.conn != nil
	return st
}

// run is the delivery loop: wait for work, keep a session alive, ship the
// spool head, repeat.
func (e *Exporter) run() {
	defer e.wg.Done()
	var conn net.Conn
	var r *bufio.Reader
	var backoff time.Duration
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		if !e.waitWork() {
			return
		}
		if conn == nil {
			c, cr, err := e.connect()
			if err != nil {
				e.noteDialFailure()
				if !e.sleepBackoff(&backoff) {
					return
				}
				continue
			}
			conn, r = c, cr
			backoff = 0
			continue // re-check: the hello echo may have emptied the spool
		}
		b := e.head()
		if b == nil {
			continue
		}
		err := e.sendOne(conn, r, b)
		switch {
		case err == nil:
			backoff = 0
			e.ackUpTo(b.seq)
		case errors.Is(err, errRejected):
			// The stream is intact (in-band error); drop the poisonous
			// batch and keep the connection.
			e.dropHead(b.seq)
		default:
			e.teardown(conn)
			conn, r = nil, nil
			if !e.sleepBackoff(&backoff) {
				return
			}
		}
	}
}

// waitWork blocks until the spool is non-empty or the exporter closes,
// reporting whether the loop should keep running.
func (e *Exporter) waitWork() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.spool) == 0 && !e.closed {
		e.cond.Wait()
	}
	return !e.closed
}

// connect dials and runs the MsgHello handshake, then prunes every spooled
// batch at or below the echoed replay horizon (already applied; the ack
// was lost). On success the connection is registered so Close can unblock
// the loop.
func (e *Exporter) connect() (net.Conn, *bufio.Reader, error) {
	conn, err := e.cfg.Dial(e.cfg.Addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	if err := conn.SetDeadline(time.Now().Add(e.cfg.AttemptTimeout)); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.AppendHello(nil, e.sessionID)); err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	typ, payload, err := wire.ReadFrame(r)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	if typ != wire.MsgHelloAck {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("export: hello reply type %v", typ)
	}
	lastAcked, err := wire.DecodeHelloAck(payload)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		_ = conn.Close()
		return nil, nil, ErrClosed
	}
	e.conn = conn
	e.stats.Hellos++
	e.ring.Record(tracelog.StageExportDial, e.sessionID, 0, 0, 1)
	e.ring.Record(tracelog.StageExportHello, e.sessionID, 0, 0, lastAcked)
	for len(e.spool) > 0 && e.spool[0].seq <= lastAcked {
		b := e.spool[0]
		e.spool = e.spool[1:]
		e.stats.BatchesAcked++
		e.stats.UpdatesAcked += uint64(b.n)
		e.ring.Record(tracelog.StageExportPrune, e.sessionID, b.seq,
			uint32(b.n), lastAcked)
	}
	return conn, r, nil
}

// head returns the oldest spooled batch (nil if the spool emptied) and
// records the send attempt in the ledger.
func (e *Exporter) head() *batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.spool) == 0 {
		return nil
	}
	b := e.spool[0]
	e.stats.SendAttempts++
	if b.attempts > 0 {
		e.stats.Retransmits++
	}
	b.attempts++
	e.ring.Record(tracelog.StageExportSend, e.sessionID, b.seq,
		uint32(b.n), uint64(b.attempts))
	return b
}

// sendOne ships one pre-encoded batch and awaits its MsgSeqAck.
func (e *Exporter) sendOne(conn net.Conn, r *bufio.Reader, b *batch) error {
	if err := conn.SetDeadline(time.Now().Add(e.cfg.AttemptTimeout)); err != nil {
		return err
	}
	if err := wire.WriteFrame(conn, wire.MsgSeqUpdates, b.payload); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(r)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgSeqAck:
		acked, err := wire.DecodeSeqAck(payload)
		if err != nil {
			return err
		}
		if acked != b.seq {
			return fmt.Errorf("export: ack for seq %d, sent %d", acked, b.seq)
		}
		return nil
	case wire.MsgError:
		return fmt.Errorf("%w: %s", errRejected, payload)
	default:
		return fmt.Errorf("export: unexpected reply type %v", typ)
	}
}

// ackUpTo removes the acked batch (and, defensively, anything older) from
// the spool and credits the ledger.
func (e *Exporter) ackUpTo(seq uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.spool) > 0 && e.spool[0].seq <= seq {
		b := e.spool[0]
		e.spool = e.spool[1:]
		e.stats.BatchesAcked++
		e.stats.UpdatesAcked += uint64(b.n)
		e.ring.Record(tracelog.StageExportAck, e.sessionID, b.seq,
			uint32(b.n), seq)
	}
}

// dropHead sheds the head batch if it is still seq (a server-rejected
// batch that retrying cannot fix).
func (e *Exporter) dropHead(seq uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.spool) > 0 && e.spool[0].seq == seq {
		b := e.spool[0]
		e.spool = e.spool[1:]
		e.stats.BatchesDropped++
		e.stats.UpdatesDropped += uint64(b.n)
		e.ring.Record(tracelog.StageExportDrop, e.sessionID, b.seq,
			uint32(b.n), uint64(b.attempts))
	}
}

// teardown closes a failed connection and notes the reconnect.
func (e *Exporter) teardown(conn net.Conn) {
	_ = conn.Close()
	e.mu.Lock()
	e.conn = nil
	e.stats.Reconnects++
	e.ring.Record(tracelog.StageExportCut, e.sessionID, 0, 0, e.stats.Reconnects)
	e.mu.Unlock()
}

// noteDialFailure counts a connection attempt that never yielded a session.
func (e *Exporter) noteDialFailure() {
	e.mu.Lock()
	e.stats.DialFailures++
	e.ring.Record(tracelog.StageExportDial, e.sessionID, 0, 0, 0)
	e.mu.Unlock()
}

// sleepBackoff sleeps the next jittered exponential step (uniform in
// [d/2, 3d/2)), advancing *d toward MaxBackoff. It reports false if the
// exporter closed while sleeping.
func (e *Exporter) sleepBackoff(d *time.Duration) bool {
	if *d == 0 {
		*d = e.cfg.BaseBackoff
	} else if *d *= 2; *d > e.cfg.MaxBackoff {
		*d = e.cfg.MaxBackoff
	}
	e.mu.Lock()
	jittered := *d/2 + time.Duration(e.rng.Next()%uint64(*d))
	e.mu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-e.done:
		return false
	case <-t.C:
		return true
	}
}

// RegisterTelemetry registers the exporter's scrape-time probes on reg
// under dcsketch_export_*: the delivery ledger, reconnect/backoff
// activity, and spool occupancy. Every series reads one Stats taken per
// scrape, so a scrape takes mu once and its ledger series agree with each
// other.
func (e *Exporter) RegisterTelemetry(reg *telemetry.Registry) {
	st := telemetry.Scraped(reg, e.Stats)
	reg.CounterFunc("dcsketch_export_batches_enqueued_total",
		"Batches admitted to the spool.",
		func() uint64 { return st().BatchesEnqueued })
	reg.CounterFunc("dcsketch_export_updates_enqueued_total",
		"Flow updates admitted to the spool.",
		func() uint64 { return st().UpdatesEnqueued })
	reg.CounterFunc("dcsketch_export_batches_acked_total",
		"Batches confirmed applied by the server.",
		func() uint64 { return st().BatchesAcked })
	reg.CounterFunc("dcsketch_export_updates_acked_total",
		"Flow updates confirmed applied by the server.",
		func() uint64 { return st().UpdatesAcked })
	reg.CounterFunc("dcsketch_export_batches_dropped_total",
		"Batches shed by spool overflow or rejected by the server.",
		func() uint64 { return st().BatchesDropped })
	reg.CounterFunc("dcsketch_export_updates_dropped_total",
		"Flow updates lost to shed or rejected batches.",
		func() uint64 { return st().UpdatesDropped })
	reg.CounterFunc("dcsketch_export_send_attempts_total",
		"Sequenced-batch round trips started.",
		func() uint64 { return st().SendAttempts })
	reg.CounterFunc("dcsketch_export_retransmits_total",
		"Batch sends beyond each batch's first attempt.",
		func() uint64 { return st().Retransmits })
	reg.CounterFunc("dcsketch_export_reconnects_total",
		"Live connections torn down after a transport failure.",
		func() uint64 { return st().Reconnects })
	reg.CounterFunc("dcsketch_export_dial_failures_total",
		"Connection attempts that never yielded a session.",
		func() uint64 { return st().DialFailures })
	reg.CounterFunc("dcsketch_export_hellos_total",
		"Replay handshakes completed.",
		func() uint64 { return st().Hellos })
	reg.GaugeFunc("dcsketch_export_spool_depth",
		"Unacked batches currently spooled.",
		func() int64 { return int64(st().SpoolDepth) })
	reg.GaugeFunc("dcsketch_export_connected",
		"1 while the delivery loop holds a live connection.",
		func() int64 {
			if st().Connected {
				return 1
			}
			return 0
		})
}
