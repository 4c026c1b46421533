package faultnet

import (
	"net"
	"testing"
	"time"
)

// TestKillAfterSeversProcess checks the restart primitive: once the
// injector-wide byte budget is spent, the wrapped listener and every live
// connection die at once, mid-stream, and Killed() reports it.
func TestKillAfterSeversProcess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{Seed: 9, KillAfter: 4096})
	wrapped := in.Listen(ln)

	// A toy "process": accept connections and swallow their bytes.
	go func() {
		for {
			c, err := wrapped.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 512)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	// Two concurrent clients write until the kill severs them; both ends of
	// each stream are wrapped, so reads and writes all charge the budget.
	// Both dial before either writes: a dial that lands after the kill is
	// refused, which is right for a dead process but not what this checks.
	var clients []net.Conn
	for i := 0; i < 2; i++ {
		c, err := in.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	errs := make(chan error, 2)
	for _, c := range clients {
		go func() {
			defer c.Close()
			chunk := make([]byte, 64)
			for {
				_ = c.SetWriteDeadline(time.Now().Add(2 * time.Second))
				if _, err := c.Write(chunk); err != nil {
					errs <- nil
					return
				}
			}
		}()
	}

	select {
	case <-in.Killed():
	case <-time.After(5 * time.Second):
		t.Fatal("kill never fired")
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("writer survived the kill")
		}
	}
	// The listener is dead: the next dial cannot complete a connection.
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("listener still accepting after kill")
	}
	st := in.Stats()
	if st.Kills != 1 {
		t.Fatalf("Kills = %d, want 1", st.Kills)
	}
	if total := st.BytesRead + st.BytesWritten; total < 4096/2 {
		t.Fatalf("kill fired after only %d bytes, below the minimum jittered budget", total)
	}
}

// TestKillCutsConnectionsWrappedAfterIt checks that the kill covers
// connections wrapped after it fired (a late Accept or Dial racing the
// crash): the first write on one fails instead of outliving the process.
func TestKillCutsConnectionsWrappedAfterIt(t *testing.T) {
	in := New(Config{Seed: 5, KillAfter: 1024})
	client, server := pipePair(t)
	fc := in.WrapConn(client)
	_, done := drain(server)
	chunk := make([]byte, 64)
	for {
		if _, err := fc.Write(chunk); err != nil {
			break
		}
	}
	select {
	case <-in.Killed():
	case <-time.After(5 * time.Second):
		t.Fatal("kill never fired")
	}
	<-done

	late, peer := pipePair(t)
	lc := in.WrapConn(late)
	_, lateDone := drain(peer)
	if _, err := lc.Write(chunk); err == nil {
		t.Fatal("connection wrapped after the kill accepted a write")
	}
	<-lateDone
	if st := in.Stats(); st.Kills != 1 {
		t.Fatalf("Kills = %d, want 1", st.Kills)
	}
}

// TestKillAfterZeroNeverFires pins the opt-in default: with KillAfter unset
// traffic flows indefinitely and Killed never closes.
func TestKillAfterZeroNeverFires(t *testing.T) {
	client, server := pipePair(t)
	in := New(Config{Seed: 3})
	fc := in.WrapConn(client)
	_, done := drain(server)
	for i := 0; i < 64; i++ {
		if _, err := fc.Write(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-in.Killed():
		t.Fatal("kill fired with KillAfter unset")
	default:
	}
	fc.Close()
	<-done
	if st := in.Stats(); st.Kills != 0 || st.BytesWritten != 64*1024 {
		t.Fatalf("stats = %+v", st)
	}
}
