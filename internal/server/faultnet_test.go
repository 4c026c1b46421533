package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dcsketch/internal/faultnet"
	"dcsketch/internal/wire"
)

// startFaultServer binds a real listener, wraps it with inj, and serves
// through the Serve seam so every accepted connection carries the fault
// schedule.
func startFaultServer(t *testing.T, cfg Config, inj *faultnet.Injector) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(inj.Listen(ln)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// TestStalledReaderTimesOut is the write-deadline regression test: a peer
// that stops draining (modeled by blackholing the server side's writes)
// must not park the handler goroutine forever — the WriteTimeout fires, the
// handler drops the connection, and Shutdown still completes promptly.
func TestStalledReaderTimesOut(t *testing.T) {
	inj := faultnet.New(faultnet.Config{
		Seed:            1,
		CutAfter:        64, // fires on the server's first read (a whole read buffer is charged)
		MaxCuts:         1,
		BlackholeWrites: true,
	})
	srv, addr := startFaultServer(t, Config{WriteTimeout: 200 * time.Millisecond}, inj)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server's wrapped connection latches the blackhole while reading
	// the hello, so the hello-ack write stalls and only the write deadline
	// can save the handler.
	if err := wire.WriteFrame(conn, wire.MsgHello, wire.AppendHello(nil, 1)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := wire.ReadFrame(bufio.NewReader(conn))
		done <- err
	}()
	start := time.Now()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read succeeded through a blackholed reply path")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler stalled: reply neither arrived nor was the connection dropped")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection dropped only after %v; write deadline did not fire", elapsed)
	}
	if st := inj.Stats(); st.Blackholes != 1 {
		t.Fatalf("faultnet stats = %+v, want exactly one blackhole", st)
	}
	// The handler goroutine is free again: Shutdown must not hang on it.
	srv.Shutdown()
}

// TestMidFrameResetRecovers cuts client connections mid-frame repeatedly;
// the server must survive every partial frame and keep serving fresh
// connections.
func TestMidFrameResetRecovers(t *testing.T) {
	_, addr := startServer(t, Config{})
	inj := faultnet.New(faultnet.Config{Seed: 7, CutAfter: 300})

	cuts := 0
	for i := 0; i < 5; i++ {
		c, err := inj.Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The hello goes ahead of the first batch without waiting for its
		// ack, so the cut lands inside that batch's frame (hello plus
		// batch exceed the largest drawn threshold).
		if err := wire.WriteFrame(c, wire.MsgHello, wire.AppendHello(nil, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(c)
		for seq := uint64(1); ; seq++ {
			if err := wire.WriteFrame(c, wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, seq, batchOf(50, 7, 1))); err != nil {
				if !errors.Is(err, faultnet.ErrInjectedReset) {
					t.Fatalf("unexpected write error: %v", err)
				}
				cuts++
				break
			}
			if _, _, err := wire.ReadFrame(r); err != nil {
				cuts++
				break
			}
		}
		c.Close()
	}
	if cuts != 5 {
		t.Fatalf("cuts = %d, want one per connection", cuts)
	}

	// A clean client still gets answers.
	sc := dialSess(t, addr)
	sc.hello(99)
	sc.seqSend(1, batchOf(10, 9, 1))
	if _, err := dial(t, addr).TopK(1); err != nil {
		t.Fatalf("server wedged after mid-frame resets: %v", err)
	}
}

// TestPartialHeaderThenClose sends a torn frame header and disconnects; the
// server must drop the connection without counting an applied request.
func TestPartialHeaderThenClose(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Two bytes of the four-byte length prefix, then nothing.
	if _, err := conn.Write([]byte{0x10, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	sc := dialSess(t, addr)
	sc.hello(1)
	sc.seqSend(1, batchOf(5, 3, 1))
	if st := srv.Stats(); st.Batches != 1 || st.Updates != 5 {
		t.Fatalf("stats after torn header = %+v", st)
	}
}

// TestSlowLorisWrites drips a whole frame one byte at a time; the server's
// buffered reader must assemble and ack it.
func TestSlowLorisWrites(t *testing.T) {
	srv, addr := startServer(t, Config{})
	inj := faultnet.New(faultnet.Config{
		Seed:       3,
		WriteChunk: 1,
		Delay:      100 * time.Microsecond,
	})
	c, err := inj.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rc := &sessConn{t: t, conn: c, r: bufio.NewReader(c)}
	rc.hello(1)
	rc.seqSend(1, batchOf(20, 11, 1))
	if st := inj.Stats(); st.PartialWrites == 0 {
		t.Fatal("WriteChunk=1 injected no partial writes")
	}
	if st := srv.Stats(); st.Batches != 1 || st.Updates != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShutdownRacesInflightDispatch shuts the server down while clients are
// mid-stream; Shutdown must reap every handler without deadlock (and the
// race detector watches the rest).
func TestShutdownRacesInflightDispatch(t *testing.T) {
	srv, addr := startServer(t, Config{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			inj := faultnet.New(faultnet.Config{Seed: seed, WriteChunk: 16})
			c, err := inj.Dial(addr, 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			r := bufio.NewReader(c)
			if err := wire.WriteFrame(c, wire.MsgHello, wire.AppendHello(nil, seed)); err != nil {
				return
			}
			if _, _, err := wire.ReadFrame(r); err != nil {
				return
			}
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := wire.WriteFrame(c, wire.MsgSeqUpdates, wire.AppendSeqUpdates(nil, seq, batchOf(100, 2, 1))); err != nil {
					return
				}
				if _, _, err := wire.ReadFrame(r); err != nil {
					return
				}
			}
		}(uint64(i + 1))
	}

	time.Sleep(20 * time.Millisecond) // let the streams get in flight
	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown deadlocked against in-flight dispatch")
	}
	close(stop)
	wg.Wait()
}

// flakyListener fails its first `failures` Accept calls with a transient
// error, then delegates to the real listener.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

var errFlaky = errors.New("transient accept failure")

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.failures > 0
	if fail {
		l.failures--
	}
	l.mu.Unlock()
	if fail {
		return nil, errFlaky
	}
	return l.Listener.Accept()
}

// TestAcceptErrorsRetriedWithBackoff proves a failing Accept no longer kills
// the accept loop: the errors are counted, retried, and the listener then
// serves normally.
func TestAcceptErrorsRetriedWithBackoff(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(&flakyListener{Listener: ln, failures: 3}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)

	// The three failures cost ~5+10+20ms of backoff before Accept recovers.
	cl := dial(t, ln.Addr().String())
	if _, err := cl.TopK(1); err != nil {
		t.Fatalf("accept loop did not recover: %v", err)
	}
	if st := srv.Stats(); st.AcceptErrors != 3 || st.ConnsAccepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeRefusesDoubleAndShutdown pins the Serve seam's ownership rules.
func TestServeRefusesDoubleAndShutdown(t *testing.T) {
	srv, _ := startServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("second Serve on one server succeeded")
	}
	srv.Shutdown()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown succeeded")
	}
}

// TestClientPoisonedAfterTransportError: the first transport failure must
// stick — later calls fail fast with ErrPoisoned instead of reusing a
// desynchronized stream.
func TestClientPoisonedAfterTransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A peer that accepts, reads a little, and slams the connection shut:
	// the client's round trip dies mid-reply.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		_, _ = conn.Read(buf)
		conn.Close()
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, first := c.TopK(1)
	if first == nil {
		t.Fatal("round trip against a slamming peer succeeded")
	}
	if errors.Is(first, ErrPoisoned) {
		t.Fatalf("first error already wrapped ErrPoisoned: %v", first)
	}
	if _, second := c.TopK(1); !errors.Is(second, ErrPoisoned) {
		t.Fatalf("second call error = %v, want ErrPoisoned", second)
	}
}
