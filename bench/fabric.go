package main

import (
	"fmt"
	"net"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/hashing"
	"dcsketch/internal/monitor"
	"dcsketch/internal/relay"
	"dcsketch/internal/server"
	"dcsketch/internal/wire"
)

// daemonMonitor is the monitor configuration ddosmond and ddosrelay build
// from their flag defaults (-r 3 -s 128 -seed 1 -k 10 -check-interval 4096
// -min-frequency 64). The sketch seed is the daemons' and never the
// benchmark's: -seed varies the inputs only.
func daemonMonitor() monitor.Config {
	return monitor.Config{
		Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
		K:             10,
		CheckInterval: 4096,
		MinFrequency:  64,
	}
}

// drainTimeout bounds every wait for a spool to empty; loopback delivery
// of a full spool takes milliseconds, so hitting it means the fabric is
// stuck.
const drainTimeout = 60 * time.Second

// fabric is the tiers of one run, hosted in this process over loopback.
type fabric struct {
	global *server.Server
	relay  *relay.Relay // nil unless the workload routes through a relay
	edges  []*export.Exporter
	// query is the probe connection to the global tier.
	query *server.Client
	// acks time each edge's batch round trips; nil on untraced runs.
	acks   []*ackClock
	closed bool
}

// sessionID derives a pinned, non-zero replay session per exporter, as a
// deployment pins -session.
func sessionID(seed uint64, idx int) uint64 {
	return hashing.Mix64(seed<<8|uint64(idx)) | 1
}

// newFabric builds the tiers through the daemons' own constructors and
// completes one query round trip, so the global tier is serving when it
// returns. With timed set, each edge dials through an ackClock.
func newFabric(w workload, seed uint64, clk *clock, timed bool) (f *fabric, err error) {
	f = &fabric{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.global, err = server.New(server.Config{Monitor: daemonMonitor()}); err != nil {
		return nil, err
	}
	gaddr, err := f.global.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	target := gaddr.String()
	if w.relay {
		// ddosrelay's defaults: inline ingest, default spool, no shedding;
		// -seed 1 seeds both the sketch and the backoff jitter.
		f.relay, err = relay.New(relay.Config{
			Upstream:  target,
			Monitor:   daemonMonitor(),
			SessionID: sessionID(seed, 100),
			Seed:      1,
		})
		if err != nil {
			return nil, err
		}
		raddr, err := f.relay.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		target = raddr.String()
	}
	for e := 0; e < w.edges; e++ {
		cfg := export.Config{Addr: target, SessionID: sessionID(seed, e)}
		if timed {
			ac := &ackClock{clk: clk, edge: e, tr: newTracer(ownerAcks + uint64(e))}
			f.acks = append(f.acks, ac)
			cfg.Dial = ac.dial
		}
		exp, err := export.New(cfg)
		if err != nil {
			return nil, err
		}
		f.edges = append(f.edges, exp)
	}
	if f.query, err = server.Dial(gaddr.String(), 5*time.Second); err != nil {
		return nil, err
	}
	if _, err = f.query.TopK(10); err != nil {
		return nil, fmt.Errorf("first query: %w", err)
	}
	return f, nil
}

// drain waits until every edge spool and the relay's upstream spool are
// empty, so everything exported so far is applied at the global tier.
func (f *fabric) drain() error {
	for e, exp := range f.edges {
		if err := exp.Drain(drainTimeout); err != nil {
			return fmt.Errorf("edge %d: %w", e, err)
		}
	}
	if f.relay != nil {
		if err := f.relay.Drain(drainTimeout); err != nil {
			return fmt.Errorf("relay: %w", err)
		}
	}
	return nil
}

// addLedgers adds every exporter's and every server's delivery counters to c.
func (f *fabric) addLedgers(c *counters) {
	addExport := func(st export.Stats) {
		c.SendAttempts += st.SendAttempts
		c.Retransmits += st.Retransmits
	}
	addServer := func(st server.Stats) {
		c.SeqBatches += st.SeqBatches
		c.DuplicateBatches += st.DuplicateBatches
	}
	for _, exp := range f.edges {
		addExport(exp.Stats())
	}
	if f.relay != nil {
		rs := f.relay.Stats()
		addExport(rs.Export)
		addServer(rs.Server)
	}
	addServer(f.global.Stats())
}

// close stops every tier, edges first, and waits for their goroutines. It
// may be called more than once.
func (f *fabric) close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, exp := range f.edges {
		_ = exp.Close() // Close always returns nil
	}
	if f.query != nil {
		_ = f.query.Close() // probe connection only read; nothing to flush
	}
	if f.relay != nil {
		f.relay.Shutdown(0)
	}
	if f.global != nil {
		f.global.Shutdown()
	}
}

// ackClock is an edge exporter's transport (export.Config.Dial): it stamps
// each sequenced batch frame as it is written and the ack read that follows.
// The exporter is stop-and-wait and numbers batches from 1 with no gaps
// while nothing is shed or retransmitted (the oracle checks both), so the
// n-th batch frame on the session is the edge's n-th Export. Only the
// exporter's delivery goroutine calls into it; its spans are read after the
// exporter is closed.
type ackClock struct {
	clk     *clock
	edge    int
	tr      *tracer
	seq     uint64
	pending bool
	sent    time.Duration
}

func (a *ackClock) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, a: a}, nil
}

type timedConn struct {
	net.Conn
	a *ackClock
}

// Write notes a batch frame by its header (wire.WriteFrame writes the 5-byte
// header and the payload separately).
func (c *timedConn) Write(p []byte) (int, error) {
	if len(p) == 5 && wire.MsgType(p[4]) == wire.MsgSeqUpdates {
		c.a.seq++
		c.a.pending = true
		c.a.sent = c.a.clk.now()
	}
	return c.Conn.Write(p)
}

// Read stamps the first bytes after a batch frame: its ack.
func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.a.pending {
		c.a.pending = false
		c.a.tr.add("export.roundtrip", windowSpan, c.a.sent, c.a.clk.now(), batchRef(c.a.edge, c.a.seq))
	}
	return n, err
}

// batchRef names batch seq of edge e in spans.
func batchRef(e int, seq uint64) uint64 { return uint64(e)<<40 | seq }
