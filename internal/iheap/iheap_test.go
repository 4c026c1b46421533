package iheap

import (
	"sort"
	"testing"
	"testing/quick"

	"dcsketch/internal/hashing"
)

// checkInvariants verifies the heap property and the position index.
func checkInvariants(t *testing.T, h *Heap) {
	t.Helper()
	for i := 1; i < len(h.entries); i++ {
		parent := (i - 1) / 2
		if h.less(h.entries[i], h.entries[parent]) {
			t.Fatalf("heap property violated at %d: %+v above %+v",
				i, h.entries[parent], h.entries[i])
		}
	}
	if len(h.pos) != len(h.entries) {
		t.Fatalf("index size %d != entries %d", len(h.pos), len(h.entries))
	}
	for key, i := range h.pos {
		if h.entries[i].Key != key {
			t.Fatalf("index mismatch: pos[%d]=%d holds key %d", key, i, h.entries[i].Key)
		}
	}
}

func TestAdjustInsertAndRead(t *testing.T) {
	h := New(8)
	if got := h.Adjust(7, 3); got != 3 {
		t.Fatalf("Adjust new key = %d, want 3", got)
	}
	if p, ok := h.Get(7); !ok || p != 3 {
		t.Fatalf("Get = (%d,%v), want (3,true)", p, ok)
	}
	if m, ok := h.Max(); !ok || m.Key != 7 || m.Priority != 3 {
		t.Fatalf("Max = (%+v,%v)", m, ok)
	}
	checkInvariants(t, h)
}

func TestAdjustNonPositiveOnMissingKeyIsNoop(t *testing.T) {
	h := New(0)
	if got := h.Adjust(1, 0); got != 0 {
		t.Fatalf("Adjust(+0) on missing key = %d", got)
	}
	if got := h.Adjust(1, -5); got != 0 {
		t.Fatalf("Adjust(-5) on missing key = %d", got)
	}
	if h.Len() != 0 {
		t.Fatal("heap must remain empty")
	}
}

func TestAdjustToZeroRemoves(t *testing.T) {
	h := New(0)
	h.Adjust(1, 2)
	h.Adjust(2, 5)
	if got := h.Adjust(1, -2); got != 0 {
		t.Fatalf("Adjust to zero = %d, want 0", got)
	}
	if _, ok := h.Get(1); ok {
		t.Fatal("key 1 must be removed")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	checkInvariants(t, h)
}

func TestMaxEmpty(t *testing.T) {
	h := New(0)
	if _, ok := h.Max(); ok {
		t.Fatal("Max on empty heap must report !ok")
	}
}

func TestRemove(t *testing.T) {
	h := New(0)
	for i := uint32(0); i < 20; i++ {
		h.Adjust(i, int64(i)+1)
	}
	if !h.Remove(10) {
		t.Fatal("Remove existing key must return true")
	}
	if h.Remove(10) {
		t.Fatal("Remove missing key must return false")
	}
	if h.Len() != 19 {
		t.Fatalf("Len = %d, want 19", h.Len())
	}
	checkInvariants(t, h)
}

func TestTopKOrderAndNonDestructive(t *testing.T) {
	h := New(0)
	prios := []int64{5, 1, 9, 7, 3, 9, 2, 8, 6, 4}
	for i, p := range prios {
		h.Adjust(uint32(i), p)
	}
	before := h.Len()
	top := h.TopK(4)
	if h.Len() != before {
		t.Fatal("TopK must not modify the heap")
	}
	want := []Entry{{2, 9}, {5, 9}, {7, 8}, {3, 7}}
	if len(top) != len(want) {
		t.Fatalf("TopK len = %d, want %d", len(top), len(want))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, top[i], want[i])
		}
	}
	checkInvariants(t, h)
}

func TestTopKEdgeCases(t *testing.T) {
	h := New(0)
	if got := h.TopK(3); got != nil {
		t.Fatalf("TopK on empty heap = %v, want nil", got)
	}
	h.Adjust(1, 1)
	if got := h.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
	if got := h.TopK(10); len(got) != 1 {
		t.Fatalf("TopK(10) on 1-entry heap returned %d entries", len(got))
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	h := New(0)
	h.Adjust(1, 5)
	snap := h.Snapshot()
	snap[0].Priority = 999
	if p, _ := h.Get(1); p != 5 {
		t.Fatal("mutating a snapshot must not affect the heap")
	}
}

// TestAgainstReferenceModel drives the heap with a random operation sequence
// and cross-checks every observable against a plain map.
func TestAgainstReferenceModel(t *testing.T) {
	h := New(0)
	model := make(map[uint32]int64)
	rng := hashing.NewSplitMix64(1234)

	for step := 0; step < 20000; step++ {
		key := uint32(rng.Next() % 50)
		switch rng.Next() % 10 {
		case 0: // remove
			delete(model, key)
			h.Remove(key)
		case 1, 2, 3: // decrement
			got := h.Adjust(key, -1)
			if model[key]-1 <= 0 {
				delete(model, key)
			} else {
				model[key]--
			}
			if got != model[key] {
				t.Fatalf("step %d: Adjust(-1) = %d, model = %d", step, got, model[key])
			}
		default: // increment
			got := h.Adjust(key, 1)
			model[key]++
			if got != model[key] {
				t.Fatalf("step %d: Adjust(+1) = %d, model = %d", step, got, model[key])
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model = %d", step, h.Len(), len(model))
		}
	}
	checkInvariants(t, h)

	// Final top-k must match the model's sorted order.
	type kv struct {
		k uint32
		p int64
	}
	var all []kv
	for k, p := range model {
		all = append(all, kv{k, p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].k < all[j].k
	})
	k := 10
	if k > len(all) {
		k = len(all)
	}
	top := h.TopK(k)
	for i := 0; i < k; i++ {
		if top[i].Key != all[i].k || top[i].Priority != all[i].p {
			t.Fatalf("TopK[%d] = %+v, want {%d %d}", i, top[i], all[i].k, all[i].p)
		}
	}
}

func TestQuickTopKSorted(t *testing.T) {
	// Property: TopK output is non-increasing in priority.
	err := quick.Check(func(prios []uint8, k uint8) bool {
		h := New(len(prios))
		for i, p := range prios {
			if p > 0 {
				h.Adjust(uint32(i), int64(p))
			}
		}
		top := h.TopK(int(k%16) + 1)
		for i := 1; i < len(top); i++ {
			if top[i].Priority > top[i-1].Priority {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdjust(b *testing.B) {
	h := New(1024)
	for i := 0; i < b.N; i++ {
		h.Adjust(uint32(i%1024), 1)
	}
}

func BenchmarkTopK10(b *testing.B) {
	h := New(4096)
	rng := hashing.NewSplitMix64(1)
	for i := 0; i < 4096; i++ {
		h.Adjust(uint32(i), int64(rng.Next()%1000)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.TopK(10)
	}
}

// TestResetAndCopyFrom checks that Reset empties a heap without giving up
// its capacity, and that CopyFrom yields an independent heap with the
// source's entries and a valid index.
func TestResetAndCopyFrom(t *testing.T) {
	src := New(4)
	for k := uint32(1); k <= 50; k++ {
		src.Adjust(k, int64(k%7)+1)
	}
	dst := New(1)
	dst.Adjust(999, 5)
	dst.CopyFrom(src)
	checkInvariants(t, dst)
	if _, ok := dst.Get(999); ok {
		t.Fatal("CopyFrom kept an entry the source lacks")
	}
	if got, want := dst.TopK(50), src.TopK(50); len(got) != len(want) {
		t.Fatalf("copy holds %d entries, source %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("copy entry %d = %+v, source %+v", i, got[i], want[i])
			}
		}
	}
	dst.Adjust(1, 10)
	if p, _ := src.Get(1); p != 2 {
		t.Fatalf("adjusting the copy changed the source: priority %d", p)
	}

	capBefore := cap(dst.entries)
	dst.Reset()
	checkInvariants(t, dst)
	if dst.Len() != 0 || cap(dst.entries) != capBefore {
		t.Fatalf("after Reset: len %d cap %d, want 0 and %d", dst.Len(), cap(dst.entries), capBefore)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for k := uint32(1); k <= 50; k++ {
			dst.Adjust(k, 1)
		}
		dst.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling a reset heap to its old size allocated %v times", allocs)
	}
}
