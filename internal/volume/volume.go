// Package volume implements the volume-based detection baseline the paper
// argues against (§1): a tracker that ranks destinations by *packet volume*
// rather than by distinct half-open sources. It is the classic small-space
// detector — a Count-Min sketch with a candidate heap — so the evaluation
// can demonstrate the paper's robustness claims:
//
//   - a SYN flood of deliberately tiny flows ("none of the malicious
//     half-open TCP flows will be large since no data packets are ever
//     exchanged") can hide below volume thresholds while lighting up the
//     distinct-source metric; and
//   - a flash crowd of legitimate traffic saturates volume detectors even
//     though its handshakes complete, while the distinct-count sketch's
//     deletions clear it.
//
// The baseline deliberately counts every observed packet towards a
// destination's volume — including the ACKs that *remove* half-open state —
// because that is what a volume detector sees on the wire.
package volume

import (
	"dcsketch/internal/hashing"
	"dcsketch/internal/iheap"
)

// Estimate is a destination with its estimated packet volume.
type Estimate struct {
	Dest   uint32
	Volume int64
}

// CountMin is a Count-Min sketch over destination addresses.
type CountMin struct {
	rows, cols int
	counters   []int64
	hashes     []*hashing.Tab64
}

// NewCountMin builds a rows x cols Count-Min sketch. rows and cols must be
// positive; typical settings are rows 3-5 and cols in the hundreds.
func NewCountMin(rows, cols int, seed uint64) *CountMin {
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	seeds := hashing.NewSplitMix64(seed)
	cm := &CountMin{
		rows:     rows,
		cols:     cols,
		counters: make([]int64, rows*cols),
		hashes:   make([]*hashing.Tab64, rows),
	}
	for i := range cm.hashes {
		cm.hashes[i] = hashing.NewTab64(seeds.Next())
	}
	return cm
}

// Add increases dest's volume by count.
func (cm *CountMin) Add(dest uint32, count int64) {
	for i, h := range cm.hashes {
		cm.counters[i*cm.cols+h.Bucket(uint64(dest), cm.cols)] += count
	}
}

// Estimate returns the (over-)estimate of dest's volume: the minimum over
// the rows.
func (cm *CountMin) Estimate(dest uint32) int64 {
	est := int64(-1)
	for i, h := range cm.hashes {
		c := cm.counters[i*cm.cols+h.Bucket(uint64(dest), cm.cols)]
		if est < 0 || c < est {
			est = c
		}
	}
	return est
}

// SizeBytes returns the counter-array footprint.
func (cm *CountMin) SizeBytes() int { return len(cm.counters) * 8 }

// HeavyHitters ranks destinations by packet volume using a Count-Min sketch
// plus a bounded candidate heap (the standard CM-heap top-k construction).
type HeavyHitters struct {
	cm       *CountMin
	heap     *iheap.Heap
	capacity int
	packets  int64
}

// NewHeavyHitters builds a volume heavy-hitter tracker that retains up to
// capacity candidate destinations.
func NewHeavyHitters(rows, cols, capacity int, seed uint64) *HeavyHitters {
	if capacity < 1 {
		capacity = 1
	}
	return &HeavyHitters{
		cm:       NewCountMin(rows, cols, seed),
		heap:     iheap.New(capacity),
		capacity: capacity,
	}
}

// Update observes one flow update as a packet on the wire. The sign of
// delta is irrelevant to a volume detector: an ACK is traffic too.
func (h *HeavyHitters) Update(src, dst uint32, delta int64) {
	if delta == 0 {
		return
	}
	h.packets++
	h.cm.Add(dst, 1)
	est := h.cm.Estimate(dst)
	if cur, ok := h.heap.Get(dst); ok {
		h.heap.Adjust(dst, est-cur)
		return
	}
	if h.heap.Len() < h.capacity {
		h.heap.Adjust(dst, est)
		return
	}
	// Replace the smallest candidate if the newcomer beats it.
	min := h.smallest()
	if est > min.Priority {
		h.heap.Remove(min.Key)
		h.heap.Adjust(dst, est)
	}
}

// smallest scans the candidate heap for its minimum entry. The heap is a
// max-heap and candidate sets are small (hundreds), so the linear scan on
// candidate replacement is acceptable.
func (h *HeavyHitters) smallest() iheap.Entry {
	entries := h.heap.Snapshot()
	min := entries[0]
	for _, e := range entries[1:] {
		if e.Priority < min.Priority || (e.Priority == min.Priority && e.Key > min.Key) {
			min = e
		}
	}
	return min
}

// TopK returns the k destinations with the largest estimated volumes.
func (h *HeavyHitters) TopK(k int) []Estimate {
	top := h.heap.TopK(k)
	out := make([]Estimate, len(top))
	for i, e := range top {
		out[i] = Estimate{Dest: e.Key, Volume: e.Priority}
	}
	return out
}

// Packets returns the total packets observed.
func (h *HeavyHitters) Packets() int64 { return h.packets }
