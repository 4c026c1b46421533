// Package server implements the DDoS monitor daemon's network front end: a
// TCP server accepting the wire protocol from edge exporters. Each
// connection opens a replay session with MsgHello, streams sequenced
// flow-update batches (MsgSeqUpdates), and may issue top-k queries answered
// from the shared tracking state — realizing the paper's Fig. 1 deployment
// with one process. Every batch is identified by its (session, seq) pair,
// which the replay dedup table uses to apply each batch once (within the
// Config.MaxSessions bound).
//
// Concurrency model: one goroutine per accepted connection, all feeding one
// mutex-protected monitor, so every update reaches the tracking sketch and
// its alert checks as it arrives. The per-record path is allocation-free:
// frames are read into pooled per-connection arenas, decoded in place, and
// hashed before the lock, which then covers only the dedup check, the
// upstream forward and the sketch apply. The server owns every goroutine it
// starts: Shutdown stops the listener, closes live connections, and blocks
// until all handlers have exited.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/telemetry"
	"dcsketch/internal/tracelog"
	"dcsketch/internal/wire"
)

// Config parametrizes a Server.
type Config struct {
	// Monitor configures the shared detection state.
	Monitor monitor.Config
	// OnAlert, if non-nil, receives alerts from the shared monitor.
	OnAlert func(monitor.Alert)
	// ReadTimeout bounds how long a connection may stay silent before
	// being dropped (default 30s; negative disables).
	ReadTimeout time.Duration
	// WriteTimeout bounds how long a reply write (frame + flush) may block
	// on a peer that stops reading before the handler gives up and drops
	// the connection (default: the resolved ReadTimeout; negative
	// disables). Without it a stalled reader parks the handler goroutine
	// forever.
	WriteTimeout time.Duration
	// MaxConns bounds concurrent connections (default 256).
	MaxConns int
	// MaxSessions bounds the exporter-replay dedup table (default 1024);
	// past the bound the least-recently-used session's state is evicted.
	MaxSessions int
	// Trace receives the server's flight-recorder events (per-connection
	// decode/dedup/apply/ack), keyed by the wire protocol's (session, seq)
	// batch identity. Nil allocates a private
	// recorder — the recorder is always on; its record path is allocation-
	// free and a few dozen nanoseconds per frame. Pass a shared recorder to
	// merge the exporter's half of the story (export.Config.Trace) into the
	// same /debug/trace timeline.
	Trace *tracelog.Recorder
	// Forward, if non-nil, receives every accepted update batch before it
	// is applied locally — the relay tier's upstream tap. It runs under the
	// server mutex, atomically with the replay-horizon advance: the batch
	// is admitted upstream (spooled) before the horizon moves and before
	// the ack is written, so "acked downstream implies spooled upstream"
	// holds even across a crash-safe snapshot. A
	// Forward error aborts the batch without advancing the horizon and
	// drops the connection unacked, so the exporter retransmits. The slice
	// is only valid for the duration of the call: implementations must
	// copy or encode it synchronously and must not call back into the
	// server.
	Forward func(updates []wire.Update) error
}

// Server is the monitor daemon's network front end.
type Server struct {
	cfg Config

	// mu serializes batch admission against crash-safe capture. A batch's
	// dedup check, upstream admission (the Forward tap), apply and horizon
	// advance are one section under it, and so is a whole capture, the
	// embedder's hook included (SnapshotStateWith), so a capture always
	// falls between two batches. It guards no counter and no query: the
	// monitor locks itself. Monitor calls made under it take the monitor's
	// own lock, so that nesting is the sanctioned order module-wide. The
	// relay's Forward tap and spool capture run under it, so the exporter
	// spool lock nests the same way.
	//
	//lint:lockorder before(monitor.Monitor.mu)
	//lint:lockorder before(export.Exporter.mu)
	mu sync.Mutex
	// mon is the shared detection state. Immutable after New and
	// self-locking, so queries read it without mu.
	mon *monitor.Monitor
	// loc is the monitor's Locator: handlers hash their update batches with
	// it on the connection goroutine, before they take mu. Immutable.
	loc *dcs.Locator
	// sessions is the exporter-replay dedup table; holding mu across the
	// dedup check, the batch application, and the lastSeq advance is what
	// makes replayed-batch suppression atomic with the sketch. guarded by mu
	sessions *sessionTable

	// connMu guards the connection-lifecycle state below.
	connMu sync.Mutex
	// listener is the bound listener, nil until Listen. guarded by connMu
	listener net.Listener
	// conns tracks live connections so Shutdown can close them. guarded by connMu
	conns map[net.Conn]struct{}

	wg       sync.WaitGroup
	shutdown chan struct{}
	once     sync.Once

	// The counters below are lock-free and each is incremented once, where
	// its event happens; Stats, the telemetry probes and the evidence probe
	// all read them, and totals that are sums of them are derived on read.
	// updatesIn and batchesIn are incremented inside mu after the sketch
	// apply, so a reader that sees them finds the batch in the sketch.
	updatesIn, batchesIn, queriesIn, hellosIn telemetry.Counter
	// dupBatches counts retransmissions suppressed by the dedup table;
	// forwardErrs counts batches aborted because the Forward tap refused
	// them, each of which also drops its connection unacked.
	dupBatches, forwardErrs telemetry.Counter
	// framesByType counts read frames per defined type and errorsByType the
	// protocol errors they carried (indexed by wire.MsgType; index 0 and
	// the reserved slots unused). unknownFrames counts frames with an
	// undefined type byte, oversizedFrames those rejected for exceeding
	// wire.MaxFrameSize before payload allocation.
	framesByType, errorsByType     [wire.MsgTypeCount]telemetry.Counter
	unknownFrames, oversizedFrames telemetry.Counter
	// Connection lifecycle counters; acceptErrors counts listener Accept
	// failures, which the accept loop retries with backoff.
	connsAccepted, connsRejected, connsClosed, acceptErrors telemetry.Counter
	// queryLatency observes the wall time of serving one top-k query frame
	// (decode, query, reply encode), in nanoseconds.
	queryLatency telemetry.Histogram

	// rec is the flight recorder; each connection handler acquires a ring
	// of its own.
	rec *tracelog.Recorder
	// connSeq mints the writer tag stamped into each connection ring.
	connSeq atomic.Uint64
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = cfg.ReadTimeout
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 1024
	}
	mon, err := monitor.New(cfg.Monitor, cfg.OnAlert)
	if err != nil {
		return nil, err
	}
	rec := cfg.Trace
	if rec == nil {
		rec = tracelog.New(tracelog.Options{})
	}
	s := &Server{
		cfg:      cfg,
		mon:      mon,
		loc:      mon.Locator(),
		sessions: newSessionTable(cfg.MaxSessions),
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
		rec:      rec,
	}
	mon.SetDecodeRejectProbe(s.decodeRejects)
	return s, nil
}

// Tracer returns the server's flight recorder — the one passed as
// Config.Trace, or the private recorder drawn when none was. It backs the
// /debug/trace endpoint and the chaos tests' timeline reconstruction.
func (s *Server) Tracer() *tracelog.Recorder { return s.rec }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting connections
// in a background goroutine. The bound address is returned.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	if err := s.Serve(ln); err != nil {
		_ = ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts accepting connections from a caller-provided listener (the
// seam for wrapped transports, e.g. a faultnet.Listener in chaos tests).
// Ownership of ln passes to the server: Shutdown closes it. A server serves
// at most one listener.
func (s *Server) Serve(ln net.Listener) error {
	// Registering under connMu orders this against Shutdown: either the
	// accept loop is accounted in wg before Shutdown closes connections
	// (so Wait covers it), or shutdown already began and Serve refuses.
	s.connMu.Lock()
	var refuse error
	select {
	case <-s.shutdown:
		refuse = errors.New("server: already shut down")
	default:
		if s.listener != nil {
			refuse = errors.New("server: already serving a listener")
		} else {
			s.listener = ln
			s.wg.Add(1)
		}
	}
	s.connMu.Unlock()
	if refuse != nil {
		return refuse
	}
	// Serving is when batches start flowing, so it is when the recorder's
	// coarse clock starts ticking; Shutdown joins the ticker goroutine.
	s.rec.StartClock(0)
	go s.acceptLoop(ln)
	return nil
}

// acceptBackoff bounds the retry pacing for transient Accept failures
// (EMFILE, ECONNABORTED, and friends): exponential from 5ms to 1s.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.shutdown:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener itself is gone; nothing left to accept.
				return
			}
			s.acceptErrors.Inc()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// Transient resource errors (fd exhaustion, aborted
			// handshakes) recover; retrying with backoff keeps the
			// listener alive instead of silently killing it, and the
			// error counter makes a persistent failure observable.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-s.shutdown:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if !s.track(conn) {
			_ = conn.Close() // over MaxConns (or shutting down)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.shutdown:
		return false
	default:
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.connsRejected.Inc()
		return false
	}
	s.conns[conn] = struct{}{}
	s.connsAccepted.Inc()
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connsClosed.Inc()
	s.connMu.Unlock()
	_ = conn.Close()
}

// connState is the per-connection protocol state threaded through dispatch.
type connState struct {
	// sessionID is the replay session announced by MsgHello (0 before any
	// handshake). It scopes the dedup lookups for MsgSeqUpdates frames on
	// this connection.
	sessionID uint64
	// ring is the connection's flight-recorder ring; only this connection's
	// handler goroutine Records into it.
	ring *tracelog.Ring
	// scratch holds the connection's ingest buffers for the life of the
	// connection.
	scratch *ingestScratch
}

// ingestScratch aggregates the reusable per-connection ingest buffers: the
// frame payload arena (wire.ReadFrameInto), the decoded update records
// (wire.DecodeUpdatesInto), the re-keyed batch, and its located form handed
// to the monitor's apply phase. Each connection's handler owns one from
// connect to close, so in steady state a frame travels socket → payload
// arena → decoded records → located batch → kernel with zero per-record
// allocations.
type ingestScratch struct {
	payload []byte         //lint:scratch
	ups     []wire.Update  //lint:scratch
	keys    []dcs.KeyDelta //lint:scratch
	located dcs.Located    //lint:scratch
	// reply holds each framed reply (header + payload) so it goes out in
	// one Write with no per-frame header allocation (see wire.AppendFrame).
	reply []byte //lint:scratch
	// ack is the seq-ack payload staging area (max uvarint64 width).
	ack [10]byte //lint:scratch
}

// handle runs one connection's request loop.
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	connID := uint32(s.connSeq.Add(1))
	cs := connState{
		scratch: new(ingestScratch),
		ring:    s.rec.Acquire(connID),
	}
	cs.ring.Record(tracelog.StageServerConnOpen, 0, 0, 0, uint64(connID))
	defer func() {
		// The close event lands keyed to the session the connection last
		// served, so a cut connection's trace shows where its batches
		// stopped; the ring itself stays readable after release.
		cs.ring.Record(tracelog.StageServerConnClose, cs.sessionID, 0, 0, uint64(connID))
		s.rec.Release(cs.ring)
	}()
	for {
		if s.cfg.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
				return
			}
		}
		typ, payload, err := s.readFrame(r, cs.scratch)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The length prefix cannot be trusted for resync,
				// so the connection is dropped; count the rejection
				// separately from in-band protocol errors.
				s.oversizedFrames.Inc()
			}
			return
		}
		s.noteFrame(typ)
		// Bound the reply write before dispatching: a peer that stops
		// reading must time the handler out, not park it forever on a
		// full send buffer.
		if s.cfg.WriteTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
				return
			}
		}
		if err := s.dispatch(&cs, typ, payload, w); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// readFrame reads one frame into the connection's payload arena, observing
// server shutdown (Shutdown closes connections, which unblocks the read).
// The returned payload aliases sc.payload and is valid until the next call.
func (s *Server) readFrame(r *bufio.Reader, sc *ingestScratch) (wire.MsgType, []byte, error) {
	select {
	case <-s.shutdown:
		return 0, nil, errors.New("server: shutting down")
	default:
	}
	typ, payload, buf, err := wire.ReadFrameInto(r, sc.payload)
	sc.payload = buf
	return typ, payload, err
}

// writeReply frames one reply in the connection's scratch buffer and sends
// it with a single Write. Stock wire.WriteFrame's stack header escapes into
// the io.Writer interface call, costing an allocation per reply; framing in
// the pooled scratch keeps the steady-state ack path allocation-free.
func (s *Server) writeReply(cs *connState, w io.Writer, t wire.MsgType, payload []byte) error {
	buf, err := wire.AppendFrame(cs.scratch.reply[:0], t, payload)
	cs.scratch.reply = buf[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// dispatch applies one request frame and writes the reply. payload and the
// scratch buffers inside cs are only valid for the duration of the call.
func (s *Server) dispatch(cs *connState, typ wire.MsgType, payload []byte, w io.Writer) error {
	switch typ {
	case wire.MsgHello:
		id, err := wire.DecodeHello(payload)
		if err != nil {
			s.noteProtocolError(typ)
			return s.writeReply(cs, w, wire.MsgError, []byte(err.Error()))
		}
		s.mu.Lock()
		sess := s.sessions.lookup(id)
		lastAcked := sess.lastSeq
		s.mu.Unlock()
		s.hellosIn.Inc()
		cs.sessionID = id
		// Echo the replay horizon: everything at or below lastAcked is
		// applied and will never be re-applied; the exporter prunes its
		// spool to it and resends the rest.
		return s.writeReply(cs, w, wire.MsgHelloAck, wire.AppendHelloAck(nil, lastAcked))

	case wire.MsgSeqUpdates:
		seq, updates, err := wire.DecodeSeqUpdatesInto(payload, cs.scratch.ups[:0])
		cs.scratch.ups = updates[:0]
		if err != nil {
			s.noteProtocolError(typ)
			cs.ring.Record(tracelog.StageServerDecodeReject, cs.sessionID, 0, 0, tracelog.RejectDecode)
			return s.writeReply(cs, w, wire.MsgError, []byte(err.Error()))
		}
		if cs.sessionID == 0 {
			s.noteProtocolError(typ)
			cs.ring.Record(tracelog.StageServerDecodeReject, 0, seq, 0, tracelog.RejectNoHello)
			return s.writeReply(cs, w, wire.MsgError, []byte("sequenced batch before MsgHello handshake"))
		}
		cs.ring.Record(tracelog.StageServerDecode, cs.sessionID, seq, uint32(len(updates)), 0)
		// Re-key and hash outside the lock; for a duplicate this work is
		// wasted, but duplicates are the rare retry path and keeping the lock
		// hold identical to the fresh-batch case keeps sequence handling off
		// the sketch hot path. Holding mu across the dedup check, the
		// application, and the lastSeq advance makes replayed-batch
		// suppression atomic with the sketch.
		n := s.locateBatch(cs, updates)
		s.mu.Lock()
		sess := s.sessions.lookup(cs.sessionID)
		dup := seq <= sess.lastSeq
		horizon := sess.lastSeq
		var fwdErr error
		if dup {
			// Already applied: the previous ack was lost. Ack again, apply
			// nothing — this is the exactly-once half of the at-least-once
			// retransmission contract.
			s.dupBatches.Inc()
		} else {
			// The relay tap admits the batch upstream inside the same
			// critical section that applies it and advances the horizon: a
			// snapshot can never capture an advanced horizon whose batch is
			// missing from the upstream spool.
			if s.cfg.Forward != nil {
				fwdErr = s.cfg.Forward(updates)
			}
			if fwdErr == nil {
				s.mon.UpdateLocatedBatch(&cs.scratch.located)
				s.batchesIn.Inc()
				s.updatesIn.Add(uint64(n))
				sess.lastSeq = seq
			} else {
				s.forwardErrs.Inc()
			}
		}
		s.mu.Unlock()
		if fwdErr != nil {
			// Dropping the connection unacked (rather than replying
			// MsgError, which the exporter treats as a terminal rejection)
			// leaves the batch in the exporter's spool for retransmission
			// after reconnect.
			return fmt.Errorf("server: forward session %d seq %d: %w", cs.sessionID, seq, fwdErr)
		}
		if dup {
			cs.ring.Record(tracelog.StageServerDup, cs.sessionID, seq, 0, horizon)
		} else {
			cs.ring.Record(tracelog.StageServerApply, cs.sessionID, seq, uint32(n), 0)
		}
		err = s.writeReply(cs, w, wire.MsgSeqAck, wire.AppendSeqAck(cs.scratch.ack[:0], seq))
		if err == nil {
			cs.ring.Record(tracelog.StageServerAck, cs.sessionID, seq, 0, seq)
		}
		return err

	case wire.MsgTopKQuery:
		start := time.Now()
		k, err := wire.DecodeTopKQuery(payload)
		if err != nil {
			s.noteProtocolError(typ)
			return s.writeReply(cs, w, wire.MsgError, []byte(err.Error()))
		}
		ests := s.TopK(k)
		entries := make([]wire.TopKEntry, len(ests))
		for i, e := range ests {
			entries[i] = wire.TopKEntry{Dest: e.Dest, F: e.F}
		}
		err = s.writeReply(cs, w, wire.MsgTopKReply, wire.AppendTopKReply(nil, entries))
		if err == nil {
			cs.ring.Record(tracelog.StageServerQuery, cs.sessionID, 0, uint32(k), 0)
		}
		s.queryLatency.Observe(uint64(time.Since(start)))
		return err

	default:
		s.noteProtocolError(typ)
		return s.writeReply(cs, w, wire.MsgError, []byte(fmt.Sprintf("unknown frame type %d", typ)))
	}
}

// locateBatch runs the hash phase of an update frame on the connection
// goroutine: it re-keys updates and locates them into the connection's
// scratch, ready for the monitor's apply phase under mu. It returns the
// number of located (non-zero) updates.
func (s *Server) locateBatch(cs *connState, updates []wire.Update) int {
	keys := rekeyInto(cs.scratch.keys[:0], updates)
	cs.scratch.keys = keys[:0]
	s.loc.LocateBatch(&cs.scratch.located, keys)
	return len(keys)
}

// rekeyInto converts a decoded wire batch into the monitor's keyed form,
// dropping no-op zero deltas. Results are appended to dst (pass a
// length-zero slice with retained capacity to reuse a scratch buffer).
func rekeyInto(dst []dcs.KeyDelta, updates []wire.Update) []dcs.KeyDelta {
	for _, u := range updates {
		if u.Delta == 0 {
			continue
		}
		dst = append(dst, dcs.KeyDelta{Key: hashing.PairKey(u.Src, u.Dst), Delta: u.Delta})
	}
	return dst
}

// noteFrame counts one successfully read frame by type.
func (s *Server) noteFrame(typ wire.MsgType) {
	if typ.Defined() {
		s.framesByType[typ].Inc()
	} else {
		s.unknownFrames.Inc()
	}
}

// noteProtocolError counts one in-band protocol error, attributed to its
// frame type when that type is defined (an undefined type is already
// counted once, in unknownFrames).
func (s *Server) noteProtocolError(typ wire.MsgType) {
	if typ.Defined() {
		s.errorsByType[typ].Inc()
	}
}

// decodeRejects is the alert-evidence ledger's transport reject count: the
// frames refused in-band before any state change, i.e. every per-type
// protocol error plus every undefined-type frame. It is lock-free, as the
// monitor calls it under its own lock.
func (s *Server) decodeRejects() uint64 {
	n := s.unknownFrames.Load()
	for t := range s.errorsByType {
		n += s.errorsByType[t].Load()
	}
	return n
}

// TopK answers a top-k query from the shared monitor, under the monitor's
// own lock only. In-process callers count in Stats().Queries alongside
// wire queries.
func (s *Server) TopK(k int) []dcs.Estimate {
	s.queriesIn.Inc()
	return s.mon.TopK(k)
}

// Stats reports server counters.
type Stats struct {
	// Updates, Batches and Queries count successfully applied requests;
	// ProtocolErrors is the total across every error class below
	// (per-type, unknown, oversized).
	Updates, Batches, Queries, ProtocolErrors uint64
	// Hellos counts replay handshakes; SeqBatches counts sequenced update
	// frames received (Batches + DuplicateBatches + ForwardErrors);
	// DuplicateBatches counts retransmissions suppressed by the dedup table
	// (acked, not applied).
	Hellos, SeqBatches, DuplicateBatches uint64
	// ForwardErrors counts batches aborted by the Forward tap (each also
	// dropped its connection unacked, so the batch stays retransmittable).
	ForwardErrors uint64
	// SessionsActive is the live dedup-table size; SessionsEvicted counts
	// LRU evictions past the MaxSessions bound (each eviction reopens a
	// double-apply window for that session's retransmissions).
	SessionsActive  int
	SessionsEvicted uint64
	// FramesByType[t] counts successfully read frames of defined type t
	// (indexed by wire.MsgType; index 0 and the reserved slots of retired
	// frames are unused).
	FramesByType [wire.MsgTypeCount]uint64
	// ErrorsByType[t] attributes protocol errors to the defined frame
	// type that carried them: payload decode failures and frame types
	// that are not valid requests.
	ErrorsByType [wire.MsgTypeCount]uint64
	// UnknownFrames counts frames whose type byte is undefined, the
	// reserved slots of retired frames included.
	UnknownFrames uint64
	// OversizedFrames counts frames rejected for exceeding
	// wire.MaxFrameSize; each also drops its connection.
	OversizedFrames uint64
	// ConnsAccepted, ConnsRejected (over MaxConns), and ConnsClosed count
	// connection lifecycle events; ConnsActive is the live count
	// (ConnsAccepted − ConnsClosed).
	ConnsAccepted, ConnsRejected, ConnsClosed uint64
	ConnsActive                               int
	// AcceptErrors counts listener Accept failures; the accept loop
	// retries them with backoff instead of exiting.
	AcceptErrors uint64
}

// Stats returns the server counters. Every counter is read without a lock,
// each at its own instant, so under live traffic two fields may be a few
// events apart; the totals (ProtocolErrors, SeqBatches, ConnsActive) are
// derived from the fields returned beside them, so they always agree with
// their parts. Only SessionsActive and SessionsEvicted, which live in the
// session table, are read under mu. Updates and Batches are counted after
// their batch is applied, so a reader that sees Updates ≥ n finds those n
// updates in the sketch.
func (s *Server) Stats() Stats {
	st := Stats{
		Updates:          s.updatesIn.Load(),
		Batches:          s.batchesIn.Load(),
		Queries:          s.queriesIn.Load(),
		Hellos:           s.hellosIn.Load(),
		DuplicateBatches: s.dupBatches.Load(),
		ForwardErrors:    s.forwardErrs.Load(),
		UnknownFrames:    s.unknownFrames.Load(),
		OversizedFrames:  s.oversizedFrames.Load(),
		ConnsRejected:    s.connsRejected.Load(),
		ConnsClosed:      s.connsClosed.Load(),
		AcceptErrors:     s.acceptErrors.Load(),
	}
	// Accepted is read after closed, so the live count never goes negative.
	st.ConnsAccepted = s.connsAccepted.Load()
	st.ConnsActive = int(st.ConnsAccepted - st.ConnsClosed)
	st.SeqBatches = st.Batches + st.DuplicateBatches + st.ForwardErrors
	st.ProtocolErrors = st.UnknownFrames + st.OversizedFrames
	for t := range st.FramesByType {
		st.FramesByType[t] = s.framesByType[t].Load()
		st.ErrorsByType[t] = s.errorsByType[t].Load()
		st.ProtocolErrors += st.ErrorsByType[t]
	}
	sc := s.sessionCounts()
	st.SessionsActive, st.SessionsEvicted = sc.active, sc.evicted
	return st
}

// sessionCount is the session table's size and its eviction count.
type sessionCount struct {
	active  int
	evicted uint64
}

// sessionCounts reads the session table's size and eviction count; the
// table is not self-locking, so this is the one counter read under mu.
func (s *Server) sessionCounts() sessionCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sessionCount{active: s.sessions.len(), evicted: s.sessions.evicted}
}

// Monitor exposes the shared monitor, e.g. so embedders can read
// Alerting, AlertStats or SketchHealth directly. The monitor serializes its
// own state; mutating its sketch outside the server's methods is not
// supported.
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// RegisterTelemetry registers the server's query-frame latency histogram
// and its scrape-time probes on reg: request totals, per-type frame and
// protocol-error counters, oversized/unknown frame counters, the dedup
// table's sessions, and connection lifecycle. The counters are lock-free;
// the two session series share one read of the table per scrape, which
// takes mu once. It also registers the shared monitor's telemetry (check
// latency, alert ring, sketch health). Every instrument counts from New, so
// the server may already be serving. Call at most once per server and
// registry pair.
func (s *Server) RegisterTelemetry(reg *telemetry.Registry) {
	reg.Histogram("dcsketch_server_query_latency_ns",
		"Wall time of serving one top-k query frame in nanoseconds.",
		&s.queryLatency)
	reg.CounterFunc("dcsketch_server_updates_total",
		"Flow updates applied from sequenced update batches.",
		s.updatesIn.Load)
	reg.CounterFunc("dcsketch_server_batches_total",
		"Sequenced update batches applied (duplicates excluded).",
		s.batchesIn.Load)
	reg.CounterFunc("dcsketch_server_queries_total",
		"Top-k query frames answered.",
		s.queriesIn.Load)
	for t := wire.MsgType(1); int(t) < wire.MsgTypeCount; t++ {
		if !t.Defined() {
			continue // reserved slot; counted in unknown_frames_total
		}
		reg.CounterFunc(`dcsketch_server_frames_total{type="`+t.String()+`"}`,
			"Frames read, by frame type.",
			s.framesByType[t].Load)
		reg.CounterFunc(`dcsketch_server_protocol_errors_total{type="`+t.String()+`"}`,
			"Protocol errors, by the frame type that carried them.",
			s.errorsByType[t].Load)
	}
	reg.CounterFunc("dcsketch_server_hellos_total",
		"Replay-session handshakes (MsgHello) accepted.",
		s.hellosIn.Load)
	reg.CounterFunc("dcsketch_server_seq_batches_total",
		"Sequenced update frames received (applied, duplicate, or refused by the forward tap).",
		func() uint64 { return s.batchesIn.Load() + s.dupBatches.Load() + s.forwardErrs.Load() })
	reg.CounterFunc("dcsketch_server_duplicate_batches_total",
		"Retransmitted batches suppressed by the replay dedup table.",
		s.dupBatches.Load)
	reg.CounterFunc("dcsketch_server_forward_errors_total",
		"Batches aborted by the relay forward tap (connection dropped unacked).",
		s.forwardErrs.Load)
	sessions := telemetry.Scraped(reg, s.sessionCounts)
	reg.GaugeFunc("dcsketch_server_sessions_active",
		"Live replay sessions in the dedup table.",
		func() int64 { return int64(sessions().active) })
	reg.CounterFunc("dcsketch_server_sessions_evicted_total",
		"Replay sessions LRU-evicted past the MaxSessions bound.",
		func() uint64 { return sessions().evicted })
	reg.CounterFunc("dcsketch_server_accept_errors_total",
		"Listener accept failures (retried with backoff).",
		s.acceptErrors.Load)
	reg.CounterFunc("dcsketch_server_unknown_frames_total",
		"Frames with an undefined type byte.",
		s.unknownFrames.Load)
	reg.CounterFunc("dcsketch_server_oversized_frames_total",
		"Frames rejected for exceeding the maximum frame size.",
		s.oversizedFrames.Load)
	reg.CounterFunc("dcsketch_server_conns_accepted_total",
		"Connections accepted.",
		s.connsAccepted.Load)
	reg.CounterFunc("dcsketch_server_conns_rejected_total",
		"Connections rejected over the MaxConns limit.",
		s.connsRejected.Load)
	reg.CounterFunc("dcsketch_server_conns_closed_total",
		"Connections closed.",
		s.connsClosed.Load)
	reg.GaugeFunc("dcsketch_server_conns_active",
		"Live connections.",
		func() int64 { closed := s.connsClosed.Load(); return int64(s.connsAccepted.Load() - closed) })

	s.mon.RegisterTelemetry(reg)
}

// Shutdown stops accepting, closes all live connections, and waits for
// every goroutine the server started to exit. Safe to call multiple times.
func (s *Server) Shutdown() {
	s.once.Do(func() {
		close(s.shutdown)
		s.connMu.Lock()
		if s.listener != nil {
			_ = s.listener.Close()
		}
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	s.rec.StopClock()
}
