package pipeline

import (
	"testing"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
)

// wedgeShard blocks shard 0's worker at a quiescent point: the worker drains
// its queue, answers the fold, and then blocks sending the result into the
// unbuffered done channel until the returned release func reads it. While
// wedged, nothing drains the shard queue, so saturation is deterministic.
func wedgeShard(t *testing.T, p *Pipeline) (release func()) {
	t.Helper()
	acc, err := dcs.New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := foldRequest{acc: acc, done: make(chan error)}
	p.shards[0].folds <- req
	// The worker publishes served before blocking on the done send; once
	// Served ticks, the queue is drained and the worker is wedged.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats()[0].Served == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the fold")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { <-req.done }
}

// TestSheddingOffBlocksInstead pins the backpressure contract: a ship into a
// full queue blocks rather than drops, so every update lands.
func TestSheddingOffBlocksInstead(t *testing.T) {
	p, err := New(dcs.Config{Buckets: 64, Seed: 11}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	release := wedgeShard(t, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := p.NewBatcher()
		for i := 0; i < 4*DefaultBatchSize; i++ {
			b.UpdateKey(hashing.Mix64(uint64(i)), 1)
		}
		b.Flush()
	}()

	select {
	case <-done:
		t.Fatal("producer finished against a wedged depth-1 queue; expected it to block")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-done
	p.Close()

	if got := p.Updates(); got != 4*DefaultBatchSize {
		t.Fatalf("Updates() = %d, want %d", got, 4*DefaultBatchSize)
	}
}
