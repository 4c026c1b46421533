// Package pipeline provides multi-core ingestion for the sketch: a sharded
// pool of workers, each owning a private basic Distinct-Count Sketch, with
// flow updates routed by pair hash so every (src,dst) pair's inserts and
// deletes land on the same worker in order. Because sketches with one seed
// merge exactly, a query drains the shards, combines them into one counter
// array and rebuilds the tracking state once — the single-node analogue of
// the paper's multi-monitor collector (Fig. 1). (Shards deliberately do not
// maintain the §5 tracking structures per update: every fold rebuilds them
// from the merged counters anyway, so per-shard incremental tracking would be
// pure overhead on the ingest path.) No daemon ingests through it — a
// pipeline cannot raise alerts, since no monitor sees its updates — so it is
// a measured layer only: BenchmarkPipelineIngest and the fabric benchmark's
// per-layer pipeline metrics price sharded ingest against the server's
// inline path.
//
// Two ingestion paths exist. Update/UpdateKey submit one update per shard
// channel send — simple, and any number of producer goroutines may call
// them. Batcher is the fast path: each producer stages updates in private
// per-shard buffers and pays one channel hop per ~DefaultBatchSize updates
// instead of one per packet; see NewBatcher for its ordering and visibility
// contract.
//
// Concurrency contract: Update/UpdateKey may be called from any number of
// producer goroutines (they block for backpressure when a shard queue is
// full). TopK and Threshold may run concurrently with producers; each
// returns a consistent-per-shard snapshot (shards are folded in sequence, so
// the combined view is not a single atomic cut of the stream — the usual and
// acceptable semantics for monitoring). Close stops the workers and waits
// for them to exit; no update may be submitted after Close.
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
	"dcsketch/internal/tdcs"
)

// DefaultQueueDepth is the per-shard update queue length, counted in channel
// messages (a scalar update or a whole staged batch each occupy one slot).
// Deeper queues smooth bursts at the cost of latency for the fold in TopK.
const DefaultQueueDepth = 1024

// DefaultBatchSize is the number of updates a Batcher stages per shard
// before paying the channel hop to the worker.
const DefaultBatchSize = 256

// envelope is one shard-queue message: either a single scalar update (batch
// nil) or a pool-owned staged batch.
type envelope struct {
	one   dcs.KeyDelta
	batch *[]dcs.KeyDelta
}

// batchPool recycles staging buffers between producers and workers so the
// batched ingest path allocates only while a buffer is in flight for the
// first time.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]dcs.KeyDelta, 0, DefaultBatchSize)
		return &b
	},
}

// foldRequest asks a worker to merge its sketch into acc at a quiescent
// point of its own loop.
type foldRequest struct {
	acc  *dcs.Sketch
	done chan error
}

// worker owns one shard. The sketch is private to the loop goroutine (the
// documented single-writer discipline); stats are the only cross-goroutine
// worker state and live behind statMu so Stats can read them live.
type worker struct {
	updates chan envelope
	folds   chan foldRequest
	sketch  *dcs.Sketch
	done    chan struct{}

	statMu sync.Mutex
	// applied counts updates absorbed into the shard sketch, published at
	// each quiescent point (fold or exit). guarded by statMu
	applied uint64
	// served counts fold requests this worker answered. guarded by statMu
	served uint64
}

// apply absorbs one queue message into the shard sketch and returns the
// number of updates it carried. Batch buffers are returned to the pool.
func (w *worker) apply(e envelope) uint64 {
	n := uint64(1)
	if e.batch == nil {
		w.sketch.UpdateKey(e.one.Key, e.one.Delta)
	} else {
		n = uint64(len(*e.batch))
		w.sketch.UpdateBatch(*e.batch)
		*e.batch = (*e.batch)[:0]
		batchPool.Put(e.batch)
	}
	return n
}

func (w *worker) loop() {
	defer close(w.done)
	applied := uint64(0)
	publish := func(foldServed bool) {
		w.statMu.Lock()
		w.applied = applied
		if foldServed {
			w.served++
		}
		w.statMu.Unlock()
	}
	defer publish(false)
	for {
		select {
		case e, ok := <-w.updates:
			if !ok {
				// Queue closed and fully drained: exit. Fold
				// requests racing with shutdown are redirected
				// by the coordinator once done closes.
				return
			}
			applied += w.apply(e)
		case req := <-w.folds:
			// Prefer pending updates: drain the queue before
			// folding so queries observe everything submitted
			// before them (per shard).
			drained := false
			for !drained {
				select {
				case e, ok := <-w.updates:
					if !ok {
						drained = true
						break
					}
					applied += w.apply(e)
				default:
					drained = true
				}
			}
			publish(true)
			req.done <- req.acc.Merge(w.sketch) //lint:seedok fold builds acc from p.cfg, the same config every shard sketch is built from
		}
	}
}

// Pipeline is the sharded ingestion pool.
type Pipeline struct {
	cfg     dcs.Config
	shards  []*worker
	router  *hashing.Tab64
	n       atomic.Uint64
	closing sync.Once
}

// New builds a pipeline with the given number of shard workers (>= 1).
// queueDepth <= 0 selects DefaultQueueDepth.
func New(cfg dcs.Config, workers, queueDepth int) (*Pipeline, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pipeline: workers = %d, must be >= 1", workers)
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	// Validate the config once and reuse the defaulted form so all
	// shards (and query accumulators) share one seed and are mergeable.
	probe, err := dcs.New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = probe.Config()

	p := &Pipeline{
		cfg:    cfg,
		shards: make([]*worker, workers),
		router: hashing.NewTab64(cfg.Seed ^ 0x9e3779b97f4a7c15),
	}
	for i := range p.shards {
		var sk *dcs.Sketch
		if i == 0 {
			sk = probe // reuse the validation sketch
		} else {
			sk, err = dcs.New(cfg)
			if err != nil {
				return nil, err
			}
		}
		w := &worker{
			updates: make(chan envelope, queueDepth),
			folds:   make(chan foldRequest),
			sketch:  sk,
			done:    make(chan struct{}),
		}
		p.shards[i] = w
		go w.loop()
	}
	return p, nil
}

// Update routes one flow update to its shard, blocking when the shard's
// queue is full (backpressure). Calling Update after Close panics, as does
// sending on any closed channel; the contract forbids it.
func (p *Pipeline) Update(src, dst uint32, delta int64) {
	p.UpdateKey(hashing.PairKey(src, dst), delta)
}

// UpdateKey is Update on a packed pair key.
func (p *Pipeline) UpdateKey(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	shard := p.router.Bucket(key, len(p.shards))
	p.shards[shard].updates <- envelope{one: dcs.KeyDelta{Key: key, Delta: delta}}
	p.n.Add(1)
}

// Batcher is the batched ingestion fast path: it stages updates in private
// per-shard buffers and ships each buffer to its shard worker as one channel
// message when it fills (DefaultBatchSize updates) or on Flush.
//
// Ordering: all updates staged through one Batcher are applied in staging
// order per pair (the router sends a pair to exactly one shard, and buffers
// are shipped and applied in order). Updates submitted through different
// Batchers, or interleaved with scalar Update calls for the same pair, have
// no order guarantee relative to each other beyond the shard queue's FIFO —
// give each producer goroutine its own Batcher and one submission path per
// pair, the same per-producer discipline the scalar path already requires.
//
// Visibility: staged updates are invisible to TopK/Threshold until shipped.
// Call Flush before querying (or rely on a full buffer shipping itself). The
// fold still drains every shard queue, so everything shipped before a query
// is observed by it.
//
// A Batcher is not safe for concurrent use; create one per producer
// goroutine. It must be Flushed before Pipeline.Close.
type Batcher struct {
	p    *Pipeline
	size int
	// bufs holds the per-shard staging buffers, owned by this Batcher from
	// pool Get until the buffer ships (or Flush returns it).
	bufs []*[]dcs.KeyDelta //lint:scratch
}

// NewBatcher returns an empty Batcher for this pipeline.
func (p *Pipeline) NewBatcher() *Batcher {
	return &Batcher{
		p:    p,
		size: DefaultBatchSize,
		bufs: make([]*[]dcs.KeyDelta, len(p.shards)),
	}
}

// Update stages one flow update.
func (b *Batcher) Update(src, dst uint32, delta int64) {
	b.UpdateKey(hashing.PairKey(src, dst), delta)
}

// UpdateKey is Update on a packed pair key. It blocks only when a filled
// shard buffer must be shipped and that shard's queue is full.
//
//lint:allocfree
//lint:poolown staged buffer is owned by b.bufs until shipped to a worker or returned by Flush
func (b *Batcher) UpdateKey(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	shard := b.p.router.Bucket(key, len(b.p.shards))
	buf := b.bufs[shard]
	if buf == nil {
		buf = batchPool.Get().(*[]dcs.KeyDelta) //lint:allocok pool refill allocates only while the pool is cold
		b.bufs[shard] = buf
	}
	*buf = append(*buf, dcs.KeyDelta{Key: key, Delta: delta}) //lint:allocok staging buffers carry DefaultBatchSize capacity from the pool
	if len(*buf) >= b.size {
		b.bufs[shard] = nil
		b.p.ship(shard, buf)
	}
}

// Flush ships every non-empty staged buffer to its shard. It must be called
// before the producer queries (to make staged updates visible) and before
// Pipeline.Close (staged updates would otherwise be lost).
func (b *Batcher) Flush() {
	for shard, buf := range b.bufs {
		if buf == nil {
			continue
		}
		b.bufs[shard] = nil
		if len(*buf) == 0 {
			batchPool.Put(buf) //lint:poolok buffer is empty by construction (nothing was staged since Get or the last ship)
			continue
		}
		b.p.ship(shard, buf)
	}
}

// ship hands a staged buffer to a shard worker, blocking while the shard's
// queue is full (backpressure). Ownership transfers on the send: the worker
// may recycle the buffer into the pool (and a third goroutine may start
// filling it) the moment it receives — hence the length is read before.
func (p *Pipeline) ship(shard int, buf *[]dcs.KeyDelta) {
	n := uint64(len(*buf))
	p.shards[shard].updates <- envelope{batch: buf}
	p.n.Add(n)
}

// fold merges every shard's counters into a fresh accumulator and promotes
// it to a tracking sketch with a single Rebuild.
func (p *Pipeline) fold() (*tdcs.Sketch, error) {
	acc, err := p.FoldBase()
	if err != nil {
		return nil, err
	}
	return tdcs.FromBase(acc), nil
}

// FoldBase merges every shard's counters into a fresh basic sketch and
// returns it without promoting it to a tracking sketch, for callers that
// time the merge apart from the tdcs.FromBase rebuild. The caller owns the
// returned sketch.
func (p *Pipeline) FoldBase() (*dcs.Sketch, error) {
	acc, err := dcs.New(p.cfg)
	if err != nil {
		return nil, err
	}
	if err := p.foldInto(acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// foldInto merges every shard's counters into acc at per-shard quiescent
// points, draining each shard's queue first.
func (p *Pipeline) foldInto(acc *dcs.Sketch) error {
	for i, w := range p.shards {
		req := foldRequest{acc: acc, done: make(chan error, 1)}
		select {
		case w.folds <- req:
			if err := <-req.done; err != nil {
				return fmt.Errorf("pipeline: fold shard %d: %w", i, err)
			}
		case <-w.done:
			// Worker already stopped (Close): its sketch is
			// quiescent, merge directly.
			if err := acc.Merge(w.sketch); err != nil { //lint:seedok acc is built from p.cfg, the same config every shard sketch is built from
				return fmt.Errorf("pipeline: fold stopped shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// TopK folds the shards and returns the combined top-k destinations.
func (p *Pipeline) TopK(k int) ([]dcs.Estimate, error) {
	acc, err := p.fold()
	if err != nil {
		return nil, err
	}
	return acc.TopK(k), nil
}

// Threshold folds the shards and returns all destinations with estimated
// frequency >= tau, in descending frequency order (ties by ascending
// address) — the order tdcs.Threshold already guarantees.
func (p *Pipeline) Threshold(tau int64) ([]dcs.Estimate, error) {
	acc, err := p.fold()
	if err != nil {
		return nil, err
	}
	return acc.Threshold(tau), nil
}

// Updates returns the number of updates submitted so far. Updates staged in
// a Batcher are counted when shipped, not when staged.
func (p *Pipeline) Updates() uint64 { return p.n.Load() }

// ShardStats reports one shard's counters.
type ShardStats struct {
	// Applied counts updates absorbed into the shard sketch. It lags
	// updates submitted (Pipeline.Updates) by up to the shard queue's
	// current content plus anything still staged in Batchers: workers
	// publish it at quiescent points (a served fold or worker exit), so
	// only after a fold or Close is it exact. The instantaneous gap
	// between submitted and the sum of Applied is in-flight work, of
	// which QueueLen is the per-shard queued portion.
	Applied uint64
	// Served counts fold requests this shard answered.
	Served uint64
	// QueueLen is the shard queue's instantaneous occupancy in channel
	// messages (a scalar update and a whole staged batch each count 1) —
	// the backpressure signal: a shard pinned at the queue depth is
	// stalling its producers.
	QueueLen int
}

// Stats returns a per-shard snapshot of worker counters.
func (p *Pipeline) Stats() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i, w := range p.shards {
		w.statMu.Lock()
		out[i] = ShardStats{Applied: w.applied, Served: w.served, QueueLen: len(w.updates)}
		w.statMu.Unlock()
	}
	return out
}

// Shards returns the worker count.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Close stops all workers after their queues drain and waits for them to
// exit. Idempotent; queries remain answerable after Close. Producers using a
// Batcher must Flush it first.
func (p *Pipeline) Close() {
	p.closing.Do(func() {
		for _, w := range p.shards {
			close(w.updates)
		}
		for _, w := range p.shards {
			<-w.done
		}
	})
}
