package server

import (
	"sync"
	"testing"
	"time"

	"dcsketch/internal/wire"
)

// TestListenShutdownRace is the regression test for two startup/shutdown
// data races: Listen stored s.listener without a lock while a concurrent
// Shutdown read it (so a racing shutdown could miss closing the fresh
// listener), and Listen's wg.Add could race Shutdown's wg.Wait from a zero
// counter, which sync.WaitGroup forbids. Listen now registers under connMu
// and refuses once shutdown has begun. Run with -race to exercise the
// original faults.
func TestListenShutdownRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Shutdown()
		}()
		// Listen may lose the race and report the server already shut
		// down; both outcomes must leave no listener behind.
		_, _ = srv.Listen("127.0.0.1:0")
		<-done
		srv.Shutdown() // whichever side won, this must close the listener
	}
}

// TestConcurrentMixedTraffic drives updates, queries, and stat reads from
// many goroutines at once; under -race it checks the monitor/counter
// locking end to end.
func TestConcurrentMixedTraffic(t *testing.T) {
	srv, addr := startServer(t, Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for e := 0; e < 4; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for b := 0; b < 25; b++ {
				batch := make([]wire.Update, 20)
				for i := range batch {
					batch[i] = wire.Update{Src: uint32(e)<<20 | uint32(b*20+i), Dst: 9, Delta: 1}
				}
				if err := c.SendUpdates(batch); err != nil {
					errs <- err
					return
				}
				if _, err := c.TopK(3); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(e)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.Stats()
				_ = srv.TopK(2)
				_ = srv.Alerting(9)
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := srv.Stats().Updates; got != 4*25*20 {
		t.Fatalf("server ingested %d updates, want %d", got, 4*25*20)
	}
}
