package main

import (
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestRunStartsAndStops(t *testing.T) {
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-status-every", "0"}, stop, nil)
	}()
	// Give the daemon a moment to bind, then stop it.
	time.Sleep(100 * time.Millisecond)
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

// TestServeDebugJoins pins the debug server's shutdown contract: stop must
// not return until the background Serve goroutine has exited. Regression
// test for the leak where run spawned Serve with no join and Close raced
// process teardown.
func TestServeDebugJoins(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dsrv := &http.Server{Handler: http.NewServeMux()}
	stop := serveDebug(dsrv, ln)

	// The server must actually be accepting before we stop it.
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("debug server not accepting: %v", err)
	}
	conn.Close()

	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not join the serve goroutine")
	}
	// After stop, the listener is closed: Serve returned, not abandoned.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after stop")
	}
}

func TestRunErrors(t *testing.T) {
	stop := make(chan os.Signal)
	if err := run([]string{"-listen", "not-an-address"}, stop, nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run([]string{"-s", "1"}, stop, nil); err == nil {
		t.Fatal("invalid sketch config accepted")
	}
	if err := run([]string{"-bogus"}, stop, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-debug-addr", "not-an-address"}, stop, nil); err == nil {
		t.Fatal("bad debug address accepted")
	}
}

// TestRelayTierRunErrors checks that the relay tier (-upstream) fails the
// same ways as the plain daemon, and stops its upstream exporter on the way
// out.
func TestRelayTierRunErrors(t *testing.T) {
	stop := make(chan os.Signal)
	if err := run([]string{"-upstream", "127.0.0.1:1", "-bogus"}, stop, nil); err == nil {
		t.Fatal("relay tier: bad flag accepted")
	}
	if err := run([]string{"-upstream", "127.0.0.1:1", "-listen", "not-an-address"}, stop, nil); err == nil {
		t.Fatal("relay tier: bad listen address accepted")
	}
	if err := run([]string{"-upstream", "127.0.0.1:1", "-s", "1"}, stop, nil); err == nil {
		t.Fatal("relay tier: invalid sketch config accepted")
	}
	if err := run([]string{"-upstream", "127.0.0.1:1", "-listen", "127.0.0.1:0", "-debug-addr", "not-an-address"}, stop, nil); err == nil {
		t.Fatal("relay tier: bad debug address accepted")
	}
}
