// Package window implements epoch-windowed top-k tracking on top of the
// Distinct-Count Sketch, exploiting the synopsis's linearity: the sketch of
// the last W epochs equals the sum of per-epoch sketches, so retiring the
// oldest epoch is a counter subtraction (dcs.Sketch.Subtract) rather than a
// rescan of history.
//
// Windowing matters operationally: the paper's frequency metric is defined
// over the whole stream, but a monitor that has run for a week should rank
// destinations by *recent* half-open populations, not by long-forgotten
// traffic whose completions were never observed (e.g. flows that started
// before the monitor did, or timed-out state). A tumbling window of W epochs
// bounds that drift to the epoch granularity.
package window

import (
	"fmt"

	"dcsketch/internal/dcs"
)

// Tracker maintains a tumbling window of W epochs over a flow-update stream
// and answers top-k queries over the window.
type Tracker struct {
	cfg    dcs.Config
	epochs int

	// ring holds one sketch per live epoch; head indexes the epoch
	// currently receiving updates.
	ring []*dcs.Sketch
	head int
	// sum is the running sum of all live epoch sketches.
	sum *dcs.Sketch
	// sealed counts completed epoch rotations.
	sealed uint64
}

// New builds a windowed tracker over `epochs` live epochs (>= 1). With
// epochs = 1 the window degenerates to "since the last Rotate".
func New(cfg dcs.Config, epochs int) (*Tracker, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("window: epochs = %d, must be >= 1", epochs)
	}
	sum, err := dcs.New(cfg)
	if err != nil {
		return nil, err
	}
	// Reuse the defaulted config so every epoch sketch is mergeable with
	// the sum.
	cfg = sum.Config()
	t := &Tracker{cfg: cfg, epochs: epochs, ring: make([]*dcs.Sketch, epochs), sum: sum}
	for i := range t.ring {
		sk, err := dcs.New(cfg)
		if err != nil {
			return nil, err
		}
		t.ring[i] = sk
	}
	return t, nil
}

// Update records one flow update in the current epoch.
func (t *Tracker) Update(src, dst uint32, delta int64) {
	t.ring[t.head].Update(src, dst, delta)
	t.sum.Update(src, dst, delta)
}

// UpdateBatch records a batch of pre-keyed flow updates in the current
// epoch through the sketches' batched kernel. The batch lands in both the
// epoch sketch and the running sum atomically with respect to Rotate (the
// tracker is single-goroutine by contract), so window queries never observe
// half a batch.
func (t *Tracker) UpdateBatch(batch []dcs.KeyDelta) {
	t.ring[t.head].UpdateBatch(batch)
	t.sum.UpdateBatch(batch)
}

// Rotate seals the current epoch and retires the oldest one: its counters
// are subtracted from the window sum and its sketch is recycled as the new
// current epoch. Call it on a timer (e.g. every minute) or every N updates.
func (t *Tracker) Rotate() error {
	t.head = (t.head + 1) % t.epochs
	oldest := t.ring[t.head]
	if err := t.sum.Subtract(oldest); err != nil { //lint:seedok New builds sum and every ring epoch from the one cfg argument
		return fmt.Errorf("window: retire epoch: %w", err)
	}
	oldest.Reset()
	t.sealed++
	return nil
}

// TopK returns the approximate top-k destinations over the live window.
func (t *Tracker) TopK(k int) []dcs.Estimate { return t.sum.TopK(k) }

// Threshold returns all destinations over the live window with estimated
// frequency >= tau.
func (t *Tracker) Threshold(tau int64) []dcs.Estimate { return t.sum.Threshold(tau) }

// DistinctPairs estimates the live distinct pairs within the window.
func (t *Tracker) DistinctPairs() int64 { return t.sum.EstimateDistinctPairs() }

// Epochs returns the window width in epochs.
func (t *Tracker) Epochs() int { return t.epochs }

// Rotations returns how many epochs have been sealed so far.
func (t *Tracker) Rotations() uint64 { return t.sealed }

// SizeBytes returns the footprint of the W+1 sketches: the epochs and their
// running sum. Each holds only the levels its own stream has reached.
func (t *Tracker) SizeBytes() int {
	n := t.sum.SizeBytes()
	for _, sk := range t.ring {
		n += sk.SizeBytes()
	}
	return n
}
