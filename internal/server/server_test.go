package server

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/wire"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestUpdateAndQueryOverWire(t *testing.T) {
	srv, addr := startServer(t, Config{})
	sc := dialSess(t, addr)
	sc.hello(1)

	batch := make([]wire.Update, 0, 200)
	for i := uint32(0); i < 200; i++ {
		batch = append(batch, wire.Update{Src: 1000 + i, Dst: 443, Delta: 1})
	}
	sc.seqSend(1, batch)
	top, err := dial(t, addr).TopK(1)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(top) != 1 || top[0].Dest != 443 {
		t.Fatalf("TopK = %+v", top)
	}
	// The estimate is approximate: a few of the 200 pairs may collide in
	// all r second-level tables.
	if top[0].F < 180 || top[0].F > 220 {
		t.Fatalf("estimate %d, want ~200", top[0].F)
	}
	st := srv.Stats()
	if st.Updates != 200 || st.Batches != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeletesOverWire(t *testing.T) {
	_, addr := startServer(t, Config{})
	sc := dialSess(t, addr)
	sc.hello(1)

	ins := make([]wire.Update, 0, 50)
	del := make([]wire.Update, 0, 50)
	for i := uint32(0); i < 50; i++ {
		ins = append(ins, wire.Update{Src: i, Dst: 80, Delta: 1})
		del = append(del, wire.Update{Src: i, Dst: 80, Delta: -1})
	}
	sc.seqSend(1, ins)
	sc.seqSend(2, del)
	top, err := dial(t, addr).TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 0 {
		t.Fatalf("TopK after cancellation = %+v", top)
	}
}

func TestMalformedFrameGetsError(t *testing.T) {
	srv, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An unknown frame type must elicit MsgError, not a hang or crash.
	if err := wire.WriteFrame(conn, wire.MsgType(99), []byte("??")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil || typ != wire.MsgError {
		t.Fatalf("reply = (%v, %q, %v), want MsgError", typ, payload, err)
	}
	if srv.Stats().ProtocolErrors == 0 {
		t.Fatal("protocol error not counted")
	}
}

func TestConcurrentExporters(t *testing.T) {
	srv, addr := startServer(t, Config{})
	const (
		exporters = 8
		batches   = 20
		perBatch  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, exporters)
	for e := 0; e < exporters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			exp, err := export.New(export.Config{Addr: addr})
			if err != nil {
				errs <- err
				return
			}
			defer exp.Close()
			for b := 0; b < batches; b++ {
				batch := make([]wire.Update, perBatch)
				for i := range batch {
					src := uint32(e)<<16 | uint32(b*perBatch+i)
					batch[i] = wire.Update{Src: src, Dst: 7, Delta: 1}
				}
				if err := exp.Export(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- exp.Drain(10 * time.Second)
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(exporters * batches * perBatch)
	if got := srv.Stats().Updates; got != want {
		t.Fatalf("server ingested %d updates, want %d", got, want)
	}
	top := srv.TopK(1)
	if len(top) != 1 || top[0].Dest != 7 {
		t.Fatalf("TopK = %+v", top)
	}
}

func TestMaxConnsEnforced(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 1})
	c1 := dial(t, addr)
	if _, err := c1.TopK(1); err != nil {
		t.Fatal(err)
	}
	// The second connection is accepted at TCP level then closed; any
	// request on it must fail.
	c2, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.TopK(1); err == nil {
		t.Fatal("connection over MaxConns served a request")
	}
}

func TestShutdownUnblocksClients(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	if _, err := c.TopK(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
	if _, err := c.TopK(1); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	srv, _ := startServer(t, Config{})
	srv.Shutdown()
	srv.Shutdown()
}

// TestAlertOverServer floods one destination over the wire until it alerts.
// Two frames the server rejects in-band precede the flood, and the alert's
// evidence must record both through the server's decode-reject probe.
func TestAlertOverServer(t *testing.T) {
	var mu sync.Mutex
	var alerts []monitor.Alert
	srv, addr := startServer(t, Config{
		Monitor: monitor.Config{CheckInterval: 100, MinFrequency: 50},
		OnAlert: func(a monitor.Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		},
	})
	conn, r := rawConn(t, addr)
	expectError(t, conn, r, wire.MsgSeqUpdates, []byte{1, 1}) // truncated
	expectError(t, conn, r, wire.MsgType(200), nil)           // undefined type
	sc := dialSess(t, addr)
	sc.hello(1)
	batch := make([]wire.Update, 500)
	for i := range batch {
		batch[i] = wire.Update{Src: uint32(i), Dst: 443, Delta: 1}
	}
	sc.seqSend(1, batch)
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) == 0 || alerts[0].Dest != 443 {
		t.Fatalf("alerts = %+v", alerts)
	}
	ev := srv.Monitor().Evidence()
	if len(ev) == 0 || ev[0].DecodeRejects != 2 {
		t.Fatalf("evidence = %+v, want the first entry to record 2 decode rejects", ev)
	}
}
