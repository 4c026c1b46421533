package volume

import (
	"testing"

	"dcsketch/internal/hashing"
	"dcsketch/internal/stream"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(4, 256, 1)
	truth := make(map[uint32]int64)
	rng := hashing.NewSplitMix64(2)
	for i := 0; i < 50000; i++ {
		dst := uint32(rng.Next() % 2000)
		cm.Add(dst, 1)
		truth[dst]++
	}
	for dst, want := range truth {
		if got := cm.Estimate(dst); got < want {
			t.Fatalf("dest %d: estimate %d < true %d (Count-Min must never underestimate)", dst, got, want)
		}
	}
}

func TestCountMinAccurateOnHeavyHitter(t *testing.T) {
	cm := NewCountMin(4, 1024, 3)
	cm.Add(7, 100000)
	rng := hashing.NewSplitMix64(4)
	for i := 0; i < 20000; i++ {
		cm.Add(uint32(rng.Next()%5000), 1)
	}
	got := cm.Estimate(7)
	if got < 100000 || got > 101000 {
		t.Fatalf("heavy hitter estimate %d, want ~100000", got)
	}
}

func TestCountMinClampsBadParams(t *testing.T) {
	cm := NewCountMin(0, 0, 1)
	cm.Add(1, 1)
	if cm.Estimate(1) != 1 {
		t.Fatal("degenerate 1x1 sketch must still count")
	}
}

func TestHeavyHittersFindTopDest(t *testing.T) {
	hh := NewHeavyHitters(4, 1024, 100, 5)
	rng := hashing.NewSplitMix64(6)
	for i := 0; i < 30000; i++ {
		hh.Update(uint32(rng.Next()), uint32(rng.Next()%1000), 1)
	}
	for i := 0; i < 5000; i++ {
		hh.Update(uint32(i), 7777, 1)
	}
	top := hh.TopK(1)
	if len(top) != 1 || top[0].Dest != 7777 {
		t.Fatalf("TopK = %+v, want dest 7777", top)
	}
	if top[0].Volume < 5000 {
		t.Fatalf("volume estimate %d < 5000", top[0].Volume)
	}
	if hh.Packets() != 35000 {
		t.Fatalf("Packets = %d, want 35000", hh.Packets())
	}
}

func TestHeavyHittersCapacityBounded(t *testing.T) {
	hh := NewHeavyHitters(3, 256, 10, 7)
	for d := uint32(0); d < 1000; d++ {
		hh.Update(1, d, 1)
	}
	if got := len(hh.TopK(1000)); got > 10 {
		t.Fatalf("candidate set %d exceeds capacity 10", got)
	}
}

func TestVolumeDetectorBlindToDeletes(t *testing.T) {
	// The defining weakness: a flash crowd whose handshakes complete
	// produces MORE volume (SYN + ACK packets), not less. The volume
	// detector still ranks the crowd first, unlike the distinct-count
	// sketch.
	hh := NewHeavyHitters(4, 512, 100, 8)
	crowd, err := (stream.FlashCrowd{Dest: 80, Clients: 3000, CompletionRate: 1.0, Seed: 9}).Updates()
	if err != nil {
		t.Fatal(err)
	}
	attack, err := (stream.SYNFlood{Victim: 443, Zombies: 1000, Seed: 10}).Updates()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream.Interleave(11, crowd, attack) {
		hh.Update(u.Src, u.Dst, int64(u.Delta))
	}
	top := hh.TopK(1)
	if len(top) != 1 || top[0].Dest != 80 {
		t.Fatalf("volume top-1 = %+v; the crowd (6000 pkts) must outrank the flood (1000 pkts)", top)
	}
}

func TestZeroDeltaIgnored(t *testing.T) {
	hh := NewHeavyHitters(3, 64, 10, 16)
	hh.Update(1, 2, 0)
	if hh.Packets() != 0 {
		t.Fatal("zero-delta update counted as a packet")
	}
}
