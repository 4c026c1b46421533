package window

import (
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
)

func mustNew(t *testing.T, cfg dcs.Config, epochs int) *Tracker {
	t.Helper()
	w, err := New(cfg, epochs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestValidation(t *testing.T) {
	if _, err := New(dcs.Config{}, 0); err == nil {
		t.Fatal("epochs=0 accepted")
	}
	if _, err := New(dcs.Config{Buckets: 1}, 2); err == nil {
		t.Fatal("invalid sketch config accepted")
	}
}

func TestWindowForgetsOldEpochs(t *testing.T) {
	w := mustNew(t, dcs.Config{Buckets: 256, Seed: 1}, 3)
	// Epoch 0: dest 10 is hot.
	for src := uint32(1); src <= 50; src++ {
		w.Update(src, 10, 1)
	}
	if top := w.TopK(1); len(top) != 1 || top[0].Dest != 10 {
		t.Fatalf("epoch 0 TopK = %+v", top)
	}
	// Three rotations later, dest 10's epoch has left the window.
	for i := 0; i < 3; i++ {
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
		for src := uint32(1); src <= 5; src++ {
			w.Update(src, 20+uint32(i), 1)
		}
	}
	for _, e := range w.TopK(5) {
		if e.Dest == 10 {
			t.Fatalf("dest 10 still in window after expiry: %+v", e)
		}
	}
	if w.Rotations() != 3 {
		t.Fatalf("Rotations = %d, want 3", w.Rotations())
	}
}

func TestWindowKeepsRecentEpochs(t *testing.T) {
	w := mustNew(t, dcs.Config{Buckets: 256, Seed: 2}, 4)
	// Spread an attack across the last three epochs: all must count.
	for epoch := 0; epoch < 3; epoch++ {
		for src := uint32(0); src < 20; src++ {
			w.Update(uint32(epoch)*1000+src, 99, 1)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	top := w.TopK(1)
	if len(top) != 1 || top[0].Dest != 99 || top[0].F != 60 {
		t.Fatalf("TopK = %+v, want [{99 60}]", top)
	}
}

func TestWindowMatchesFreshSketchAfterExpiry(t *testing.T) {
	// After old epochs expire, the window sum must be bit-equivalent to a
	// sketch that only ever saw the live epochs; verify via identical
	// query answers on a shared seed.
	cfg := dcs.Config{Buckets: 128, Seed: 3}
	w := mustNew(t, cfg, 2)
	fresh, err := dcs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := hashing.NewSplitMix64(5)
	// Expired epoch: only into the window.
	for i := 0; i < 2000; i++ {
		key := rng.Next()
		w.Update(uint32(key>>32), uint32(key), 1)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil { // expire it fully (2-epoch window)
		t.Fatal(err)
	}
	// Live traffic: into both.
	for i := 0; i < 1000; i++ {
		key := rng.Next()
		w.Update(uint32(key>>32), uint32(key), 1)
		fresh.UpdateKey(key, 1)
	}
	a, b := w.TopK(10), fresh.TopK(10)
	if len(a) != len(b) {
		t.Fatalf("window TopK len %d, fresh %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: window %+v, fresh %+v", i, a[i], b[i])
		}
	}
	if got, want := w.DistinctPairs(), fresh.EstimateDistinctPairs(); got != want {
		t.Fatalf("DistinctPairs = %d, fresh = %d", got, want)
	}
}

func TestWindowWithDeletes(t *testing.T) {
	w := mustNew(t, dcs.Config{Buckets: 256, Seed: 7}, 2)
	for src := uint32(1); src <= 30; src++ {
		w.Update(src, 5, 1)
	}
	for src := uint32(1); src <= 30; src++ {
		w.Update(src, 5, -1)
	}
	for src := uint32(1); src <= 4; src++ {
		w.Update(src, 6, 1)
	}
	top := w.TopK(1)
	if len(top) != 1 || top[0].Dest != 6 {
		t.Fatalf("TopK = %+v, want dest 6", top)
	}
}

func TestSingleEpochWindow(t *testing.T) {
	w := mustNew(t, dcs.Config{Buckets: 128, Seed: 9}, 1)
	w.Update(1, 2, 1)
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := w.TopK(1); len(got) != 0 {
		t.Fatalf("single-epoch window after Rotate = %+v, want empty", got)
	}
	if w.Epochs() != 1 {
		t.Fatalf("Epochs = %d", w.Epochs())
	}
}

func TestThresholdOverWindow(t *testing.T) {
	w := mustNew(t, dcs.Config{Buckets: 256, Seed: 11}, 2)
	for src := uint32(0); src < 40; src++ {
		w.Update(src, 1, 1)
	}
	for src := uint32(0); src < 5; src++ {
		w.Update(src, 2, 1)
	}
	got := w.Threshold(20)
	if len(got) != 1 || got[0].Dest != 1 {
		t.Fatalf("Threshold(20) = %+v", got)
	}
}

// TestSizeBytes drives a large epoch and a small one, so the sketches hold
// different numbers of levels, and checks the footprint is their sum.
func TestSizeBytes(t *testing.T) {
	w := mustNew(t, dcs.Config{Seed: 13}, 3)
	for src := uint32(0); src < 5000; src++ {
		w.Update(src, 1, 1)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for src := uint32(0); src < 5; src++ {
		w.Update(src, 2, 1)
	}
	want := w.sum.SizeBytes()
	for _, sk := range w.ring {
		want += sk.SizeBytes()
	}
	if got := w.SizeBytes(); got != want || got == 0 {
		t.Fatalf("SizeBytes = %d, want %d (W+1 sketches)", got, want)
	}
	if got := w.SizeBytes(); got >= 4*w.sum.SizeBytes() {
		t.Fatalf("SizeBytes = %d, want below W+1 copies of the sum's %d", got, w.sum.SizeBytes())
	}
}
