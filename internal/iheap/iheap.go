// Package iheap implements the indexed max-heap backing the Tracking
// Distinct-Count Sketch's per-level topDestHeap structures (paper §5).
//
// The heap maps 32-bit destination addresses to int64 priorities (sample
// occurrence frequencies f^s_v) and supports the operations the tracking
// algorithm needs in O(log n): adjust a destination's frequency by ±1
// (creating the entry on first increment, removing it when the frequency
// returns to zero), read the maximum, and extract the top-k destinations
// *without mutating the heap*, so continuous tracking queries never disturb
// the incrementally maintained state.
package iheap

// Entry is one (destination, priority) pair held by a Heap.
type Entry struct {
	Key      uint32
	Priority int64
}

// Heap is an indexed binary max-heap. The zero value is not usable; call New.
type Heap struct {
	entries []Entry
	// pos maps a key to its index in entries, enabling O(log n)
	// adjust-key operations.
	pos map[uint32]int
	// cand is the scratch candidate queue of AppendTopK, reused across
	// queries so a top-k traversal does not allocate.
	cand []int32 //lint:scratch
}

// New returns an empty heap with capacity preallocated for hint entries.
func New(hint int) *Heap {
	return &Heap{
		entries: make([]Entry, 0, hint),
		pos:     make(map[uint32]int, hint),
	}
}

// Len returns the number of entries.
func (h *Heap) Len() int { return len(h.entries) }

// Reset empties the heap and keeps its capacity, so refilling it to its
// old size does not allocate.
func (h *Heap) Reset() {
	h.entries = h.entries[:0]
	clear(h.pos)
}

// CopyFrom replaces the heap's contents with src's, reusing its own
// capacity.
func (h *Heap) CopyFrom(src *Heap) {
	h.entries = append(h.entries[:0], src.entries...)
	clear(h.pos)
	for i, e := range h.entries {
		h.pos[e.Key] = i
	}
}

// Get returns the priority of key and whether it is present.
func (h *Heap) Get(key uint32) (int64, bool) {
	i, ok := h.pos[key]
	if !ok {
		return 0, false
	}
	return h.entries[i].Priority, true
}

// Max returns the entry with the largest priority. ok is false when the heap
// is empty.
func (h *Heap) Max() (Entry, bool) {
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	return h.entries[0], true
}

// Adjust changes key's priority by delta, inserting the key if absent and
// removing it if its priority drops to zero or below. It returns the key's
// resulting priority (zero if removed).
//
//lint:allocfree
func (h *Heap) Adjust(key uint32, delta int64) int64 {
	i, ok := h.pos[key]
	if !ok {
		if delta <= 0 {
			return 0
		}
		h.entries = append(h.entries, Entry{Key: key, Priority: delta}) //lint:allocok entry growth is amortized toward the heap's high-water mark
		i = len(h.entries) - 1
		h.pos[key] = i //lint:allocok position-index growth is amortized with the entries
		h.siftUp(i)
		return delta
	}
	p := h.entries[i].Priority + delta
	if p <= 0 {
		h.removeAt(i)
		return 0
	}
	h.entries[i].Priority = p
	if delta > 0 {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
	return p
}

// Remove deletes key from the heap if present and reports whether it was.
func (h *Heap) Remove(key uint32) bool {
	i, ok := h.pos[key]
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

// TopK returns up to k entries with the largest priorities in descending
// priority order without modifying the heap. It runs in O(k log k) by
// traversing the heap array with a small candidate priority queue, so a
// tracking query costs O(k log k) independent of the heap size.
//
// Ties are broken by smaller key first, making the output deterministic.
func (h *Heap) TopK(k int) []Entry {
	if k <= 0 || len(h.entries) == 0 {
		return nil
	}
	return h.AppendTopK(nil, k)
}

// AppendTopK appends up to k entries with the largest priorities to dst in
// descending priority order (ties by smaller key) without modifying the
// heap, and returns the extended slice. The candidate queue it traverses
// with is heap-owned scratch, so a query whose dst has capacity performs no
// allocation.
//
//lint:allocfree
func (h *Heap) AppendTopK(dst []Entry, k int) []Entry {
	if k <= 0 || len(h.entries) == 0 {
		return dst
	}
	if k > len(h.entries) {
		k = len(h.entries)
	}
	// cand is a manual min-index max-priority heap over entry indices,
	// avoiding container/heap's interface boxing on the hot query path.
	cand := h.cand[:0]
	cand = append(cand, 0) //lint:allocok scratch queue grows to a high-water mark of k+1
	for taken := 0; taken < k && len(cand) > 0; taken++ {
		i := int(cand[0])
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		h.candSiftDown(cand)
		dst = append(dst, h.entries[i]) //lint:allocok grows only when the caller's dst lacks capacity
		if l := 2*i + 1; l < len(h.entries) {
			cand = h.candPush(cand, int32(l))
		}
		if r := 2*i + 2; r < len(h.entries) {
			cand = h.candPush(cand, int32(r))
		}
	}
	h.cand = cand
	return dst
}

// candPush pushes entry index i onto the candidate heap and restores order.
//
//lint:allocfree
func (h *Heap) candPush(cand []int32, i int32) []int32 {
	cand = append(cand, i) //lint:allocok scratch queue grows to a high-water mark of k+1
	c := len(cand) - 1
	for c > 0 {
		parent := (c - 1) / 2
		if !h.less(h.entries[cand[c]], h.entries[cand[parent]]) {
			break
		}
		cand[c], cand[parent] = cand[parent], cand[c]
		c = parent
	}
	return cand
}

// candSiftDown restores candidate-heap order from the root after a pop.
//
//lint:allocfree
func (h *Heap) candSiftDown(cand []int32) {
	i := 0
	for {
		best := i
		if l := 2*i + 1; l < len(cand) && h.less(h.entries[cand[l]], h.entries[cand[best]]) {
			best = l
		}
		if r := 2*i + 2; r < len(cand) && h.less(h.entries[cand[r]], h.entries[cand[best]]) {
			best = r
		}
		if best == i {
			return
		}
		cand[i], cand[best] = cand[best], cand[i]
		i = best
	}
}

// Snapshot returns a copy of all entries in unspecified order.
func (h *Heap) Snapshot() []Entry {
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
	return out
}

func (h *Heap) removeAt(i int) {
	last := len(h.entries) - 1
	delete(h.pos, h.entries[i].Key)
	if i != last {
		h.entries[i] = h.entries[last]
		h.pos[h.entries[i].Key] = i //lint:allocok overwrite of an existing key; no bucket growth
	}
	h.entries = h.entries[:last]
	if i < len(h.entries) {
		h.siftDown(i)
		h.siftUp(i)
	}
}

// less orders entries by descending priority, then ascending key, giving the
// heap a deterministic total order.
//
//lint:inline
func (h *Heap) less(a, b Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Key < b.Key
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.entries[i], h.entries[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.entries)
	for {
		best := i
		if l := 2*i + 1; l < n && h.less(h.entries[l], h.entries[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && h.less(h.entries[r], h.entries[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

//lint:inline
func (h *Heap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].Key] = i //lint:allocok overwrite of an existing key; no bucket growth
	h.pos[h.entries[j].Key] = j //lint:allocok overwrite of an existing key; no bucket growth
}
