// Package faultnet is a deterministic fault-injection harness for the wire
// layer: a net.Conn/net.Listener wrapper that injects latency, partial
// writes, short reads, mid-frame connection resets, and write blackholes on
// a seed-driven schedule. It is the test substrate for the resilient
// exporter (internal/export) and the monitor daemon's frame handling
// (internal/server): a chaos test wraps one side's transport, runs real
// traffic, and asserts the system's end state — and because every fault is
// drawn from a SplitMix64 stream seeded by the caller, a failing schedule
// replays exactly.
//
// Faults are injected at the byte-transfer level, below the frame protocol,
// so cuts land mid-frame (the interesting case: the peer holds a partial
// header or payload) without faultnet knowing anything about frames.
//
// Determinism model: each wrapped connection derives its own generator from
// (Seed, connection index), so per-connection schedules do not depend on
// goroutine interleaving; which in-flight operation a cut kills follows
// from the byte positions the protocol writes, which is deterministic for a
// synchronous request/reply client.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dcsketch/internal/hashing"
)

// ErrInjectedReset is wrapped by errors returned from operations killed by
// an injected mid-stream reset.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Config parametrizes an Injector. The zero value injects nothing: every
// fault class is opt-in.
type Config struct {
	// Seed drives every random draw; the same seed and traffic replays the
	// same fault schedule.
	Seed uint64
	// CutAfter, when positive, resets each connection after a per-connection
	// threshold of transferred bytes (reads + writes) drawn uniformly from
	// [CutAfter/2, 3*CutAfter/2). The reset closes the underlying
	// connection (with SO_LINGER 0 on TCP, so the peer sees RST-like
	// failure mid-frame) and fails the in-flight operation.
	CutAfter int
	// MaxCuts bounds the total number of injected resets across the
	// injector; 0 means unlimited. Connections created after the budget is
	// spent, or whose threshold fires after it is spent, are left intact.
	MaxCuts int
	// KillAfter, when positive, simulates a whole-process crash: once the
	// injector-wide transferred-byte total (reads plus writes, summed over
	// every wrapped connection) crosses a threshold drawn uniformly from
	// [KillAfter/2, 3*KillAfter/2), every wrapped listener and every live
	// connection is severed at once, mid-frame — the transport-visible
	// signature of the wrapped process dying. A connection wrapped after
	// the kill (a late Accept or Dial) is severed as soon as it is wrapped:
	// a dead process holds no live connections. The kill fires at most once
	// per injector and closes the Killed channel so the harness knows to
	// restart the "process"; a restarted incarnation gets a fresh injector
	// (and thus a fresh kill budget) of its own.
	KillAfter int
	// BlackholeWrites converts injected resets into write blackholes: once
	// a connection's threshold fires, its writes block — consuming nothing —
	// until the write deadline expires or the connection is closed,
	// modeling a peer that stops draining its receive window.
	BlackholeWrites bool
	// WriteChunk, when positive, splits every Write into underlying writes
	// of 1..WriteChunk bytes each (a slow-loris peer is WriteChunk=1 plus
	// Delay). io.Writer semantics are preserved: the call still transfers
	// the full buffer unless a fault fires.
	WriteChunk int
	// ReadChunk, when positive, truncates every Read to at most
	// 1..ReadChunk bytes (a legal short read; callers must loop).
	ReadChunk int
	// Delay sleeps before every underlying read/write; DelayJitter adds a
	// uniform extra in [0, DelayJitter).
	Delay       time.Duration
	DelayJitter time.Duration
}

// Stats counts injected faults and transferred traffic.
type Stats struct {
	// Conns counts wrapped connections.
	Conns uint64
	// Cuts counts injected resets; Blackholes counts thresholds that
	// blackholed instead (BlackholeWrites).
	Cuts, Blackholes uint64
	// Kills counts KillAfter crashes fired (0 or 1 per injector).
	Kills uint64
	// PartialWrites counts Write calls split into more than one underlying
	// write; ShortReads counts Read calls truncated below the caller's
	// buffer size.
	PartialWrites, ShortReads uint64
	// BytesRead and BytesWritten count bytes actually transferred.
	BytesRead, BytesWritten uint64
}

// Injector wraps connections and listeners with the configured fault
// schedule. Safe for concurrent use.
type Injector struct {
	cfg Config

	// killed is closed when the KillAfter crash fires.
	killed chan struct{}

	// mu guards the schedule and counter state below.
	mu sync.Mutex
	// stats accumulates fault counts. guarded by mu
	stats Stats
	// spent counts resets and blackholes drawn against MaxCuts. guarded by mu
	spent int
	// killBudget is the remaining injector-wide transferred-byte allowance
	// before the crash fires; negative disables (or: already fired). guarded by mu
	killBudget int64
	// conns tracks live wrapped connections so a kill can sever them all;
	// entries remove themselves on Close. guarded by mu
	conns map[*conn]struct{}
	// listeners tracks wrapped listeners for the same reason. guarded by mu
	listeners []net.Listener
	// dead marks a fired kill; WrapConn cuts connections wrapped after it
	// (see fireKill). guarded by mu
	dead bool
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	killBudget := int64(-1)
	if cfg.KillAfter > 0 {
		// The kill point carries the same [d/2, 3d/2) jitter as CutAfter,
		// drawn from a stream decorrelated from the per-connection ones.
		span := uint64(cfg.KillAfter)
		killBudget = int64(span/2 + hashing.Mix64(cfg.Seed^0x6b696c6c706f696e)%span)
	}
	return &Injector{
		cfg:        cfg,
		killed:     make(chan struct{}),
		killBudget: killBudget,
		conns:      make(map[*conn]struct{}),
	}
}

// Killed returns a channel closed when the KillAfter crash has fired — the
// harness's cue to treat the wrapped process as dead and boot its next
// incarnation.
func (in *Injector) Killed() <-chan struct{} { return in.killed }

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// reserveCut consumes one unit of the MaxCuts budget, reporting whether the
// fault may fire.
func (in *Injector) reserveCut() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.MaxCuts > 0 && in.spent >= in.cfg.MaxCuts {
		return false
	}
	in.spent++
	if in.cfg.BlackholeWrites {
		in.stats.Blackholes++
	} else {
		in.stats.Cuts++
	}
	return true
}

// WrapConn wraps c with this injector's fault schedule.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	in.mu.Lock()
	idx := in.stats.Conns
	in.stats.Conns++
	in.mu.Unlock()
	// Decorrelate the per-connection stream from both the seed and the
	// connection index.
	rng := hashing.NewSplitMix64(hashing.Mix64(in.cfg.Seed ^ hashing.Mix64(idx+1)))
	budget := int64(-1)
	if in.cfg.CutAfter > 0 {
		span := uint64(in.cfg.CutAfter)
		budget = int64(span/2 + rng.Next()%span)
	}
	fc := &conn{
		Conn:   c,
		in:     in,
		rng:    rng,
		budget: budget,
		closed: make(chan struct{}),
	}
	in.mu.Lock()
	dead := in.dead
	in.conns[fc] = struct{}{}
	in.mu.Unlock()
	if dead {
		fc.cut()
	}
	return fc
}

// Dial connects to addr over TCP and wraps the connection.
func (in *Injector) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c), nil
}

// Listen wraps ln so every accepted connection carries the fault schedule
// and ln itself is closed if the KillAfter crash fires.
func (in *Injector) Listen(ln net.Listener) net.Listener {
	in.mu.Lock()
	in.listeners = append(in.listeners, ln)
	in.mu.Unlock()
	return &listener{Listener: ln, in: in}
}

// chargeKillLocked charges n transferred bytes against the kill budget and
// reports whether this charge is the one that crossed it. Caller holds mu;
// only one caller can ever observe true (the budget goes negative with it).
//
//lint:locked mu
func (in *Injector) chargeKillLocked(n int) bool {
	if in.killBudget < 0 || n <= 0 {
		return false
	}
	if in.killBudget -= int64(n); in.killBudget > 0 {
		return false
	}
	in.killBudget = -1
	in.stats.Kills++
	return true
}

// fireKill severs every wrapped listener and live connection, then closes
// the Killed channel. Victims are collected under mu but cut outside it:
// cutting re-enters connection state, and the documented lock order
// (conn.mu before Injector.mu) forbids touching conn-side locks under mu.
// Marking the injector dead in the same critical section closes the gap
// this leaves: a connection wrapped after the collection is not a victim,
// so WrapConn cuts it instead.
func (in *Injector) fireKill() {
	in.mu.Lock()
	in.dead = true
	victims := make([]*conn, 0, len(in.conns))
	for c := range in.conns {
		victims = append(victims, c)
	}
	listeners := append([]net.Listener(nil), in.listeners...)
	in.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, c := range victims {
		c.cut()
	}
	close(in.killed)
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c), nil
}

// conn is one fault-injected connection.
type conn struct {
	net.Conn
	in  *Injector
	rng *hashing.SplitMix64 // guarded by mu

	// mu serializes the schedule state so concurrent Read/Write draw from
	// one deterministic stream per connection. reserveCut is called with
	// it held, so conn.mu nests outside the injector's lock (never
	// reversed; see consumeBudget).
	//
	//lint:lockorder before(Injector.mu)
	mu sync.Mutex
	// budget is the remaining transferred-byte allowance before the cut
	// threshold fires; negative disables. guarded by mu
	budget int64
	// blackholed marks a connection whose writes now block. guarded by mu
	blackholed bool
	// wdeadline mirrors the write deadline for blackholed writes. guarded by mu
	wdeadline time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// Close closes the underlying connection, releases any blackholed writers,
// and removes the connection from the injector's kill registry.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.in.mu.Lock()
		delete(c.in.conns, c)
		c.in.mu.Unlock()
	})
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// delay sleeps the configured per-operation latency.
func (c *conn) delay() {
	d := c.in.cfg.Delay
	if j := c.in.cfg.DelayJitter; j > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Next() % uint64(j))
		c.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// chunkSize draws the next transfer size for a request of n bytes, bounded
// by limit when limit is positive.
func (c *conn) chunkSize(n, limit int) int {
	if limit <= 0 || n <= 1 {
		return n
	}
	c.mu.Lock()
	k := 1 + int(c.rng.Next()%uint64(limit))
	c.mu.Unlock()
	if k > n {
		k = n
	}
	return k
}

// consume draws up to want bytes against the cut budget. It returns how
// many bytes may still transfer and whether the threshold fired (the fault
// fires only if the injector's MaxCuts budget admits it).
func (c *conn) consume(want int) (allowed int, fault bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < 0 {
		return want, false
	}
	if int64(want) < c.budget {
		c.budget -= int64(want)
		return want, false
	}
	allowed = int(c.budget)
	// Lock order: conn.mu before Injector.mu (never reversed).
	if !c.in.reserveCut() {
		c.budget = -1 // budget exhausted injector-wide: run clean from here
		return want, false
	}
	c.budget = 0
	return allowed, true
}

// cut force-closes the underlying connection so the peer observes a
// mid-stream failure.
func (c *conn) cut() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // RST, not FIN: a crash, not a clean shutdown
	}
	_ = c.Close()
}

// blackholeWait blocks until the write deadline passes or the connection is
// closed, returning the corresponding error.
func (c *conn) blackholeWait() error {
	c.mu.Lock()
	deadline := c.wdeadline
	c.mu.Unlock()
	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-expire:
		return os.ErrDeadlineExceeded
	}
}

func (c *conn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		c.mu.Lock()
		holed := c.blackholed
		c.mu.Unlock()
		if holed {
			return written, c.blackholeWait()
		}
		c.delay()
		chunk := c.chunkSize(len(p)-written, c.in.cfg.WriteChunk)
		allowed, fault := c.consume(chunk)
		if fault && c.in.cfg.BlackholeWrites {
			c.mu.Lock()
			c.blackholed = true
			c.mu.Unlock()
			if written+allowed > 0 {
				// Let already-admitted bytes through; the next write (or
				// loop iteration) blocks.
				n, err := c.Conn.Write(p[written : written+allowed])
				c.noteWrite(n)
				written += n
				if err != nil {
					return written, err
				}
			}
			continue
		}
		if fault && allowed == 0 {
			c.cut()
			return written, fmt.Errorf("%w after %d bytes", ErrInjectedReset, written)
		}
		n, err := c.Conn.Write(p[written : written+allowed])
		c.noteWrite(n)
		written += n
		if err != nil {
			return written, err
		}
		if fault {
			c.cut()
			return written, fmt.Errorf("%w after %d bytes", ErrInjectedReset, written)
		}
	}
	if c.in.cfg.WriteChunk > 0 && len(p) > c.in.cfg.WriteChunk {
		c.in.mu.Lock()
		c.in.stats.PartialWrites++
		c.in.mu.Unlock()
	}
	return written, nil
}

func (c *conn) Read(p []byte) (int, error) {
	c.delay()
	chunk := c.chunkSize(len(p), c.in.cfg.ReadChunk)
	if chunk < len(p) {
		c.in.mu.Lock()
		c.in.stats.ShortReads++
		c.in.mu.Unlock()
	}
	allowed, fault := c.consume(chunk)
	if fault && c.in.cfg.BlackholeWrites {
		// Blackholes stall the write side only; the read proceeds.
		c.mu.Lock()
		c.blackholed = true
		c.mu.Unlock()
		allowed = chunk
		fault = false
	}
	if fault && allowed == 0 {
		c.cut()
		return 0, fmt.Errorf("read: %w", ErrInjectedReset)
	}
	n, err := c.Conn.Read(p[:allowed])
	c.in.mu.Lock()
	c.in.stats.BytesRead += uint64(n)
	kill := c.in.chargeKillLocked(n)
	c.in.mu.Unlock()
	if kill {
		c.in.fireKill()
	}
	if fault {
		c.cut()
		if err == nil {
			err = fmt.Errorf("read: %w", ErrInjectedReset)
		}
	}
	return n, err
}

func (c *conn) noteWrite(n int) {
	c.in.mu.Lock()
	c.in.stats.BytesWritten += uint64(n)
	kill := c.in.chargeKillLocked(n)
	c.in.mu.Unlock()
	if kill {
		c.in.fireKill()
	}
}
