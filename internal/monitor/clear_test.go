package monitor

import (
	"testing"

	"dcsketch/internal/dcs"
	"dcsketch/internal/hashing"
)

// daemonConfig is the monitor configuration both daemon tiers run with.
func daemonConfig() Config {
	return Config{
		Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
		K:             10,
		CheckInterval: 4096,
		MinFrequency:  64,
	}
}

// flood returns n updates of delta from n distinct sources, numbered from
// first, to dest.
func flood(dest uint32, first, n uint32, delta int64) []dcs.KeyDelta {
	out := make([]dcs.KeyDelta, n)
	for i := range out {
		out[i] = dcs.KeyDelta{Key: hashing.PairKey(first+uint32(i), dest), Delta: delta}
	}
	return out
}

// TestRepeatVictimAlertsAgain is the repeat-victim regression. The victim
// alerts, two bigger floods push it out of the top-2, all three floods are
// retracted, and then fresh sources attack the victim again. Its first
// excursion must end while it is outside the top-k, so the second attack
// raises a second alert instead of being suppressed as part of the first.
func TestRepeatVictimAlertsAgain(t *testing.T) {
	const victim, big1, big2 = 0x0A000001, 0x0A000002, 0x0A000003
	var alerts []Alert
	m, err := New(Config{
		Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
		K:             2,
		CheckInterval: 256,
		MinFrequency:  64,
	}, func(a Alert) { alerts = append(alerts, a) })
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateBatch(flood(victim, 1, 1024, 1))
	if !m.Alerting(victim) {
		t.Fatal("the first flood raised no alert")
	}
	m.UpdateBatch(flood(big1, 100_000, 3072, 1))
	m.UpdateBatch(flood(big2, 200_000, 4096, 1))
	for _, e := range m.TopK(2) {
		if e.Dest == victim {
			t.Fatalf("the bigger floods left the victim in the top-2: %v", m.TopK(2))
		}
	}
	m.UpdateBatch(flood(victim, 1, 1024, -1))
	m.UpdateBatch(flood(big1, 100_000, 3072, -1))
	m.UpdateBatch(flood(big2, 200_000, 4096, -1))
	m.UpdateBatch(flood(victim, 300_000, 2048, 1))

	var onVictim int
	for _, a := range alerts {
		if a.Dest == victim {
			onVictim++
		}
	}
	if onVictim != 2 {
		t.Fatalf("%d alerts on the victim over two separate attacks, want 2 (all alerts: %+v)", onVictim, alerts)
	}
}

// TestChurnAlertsClear drives the daemon configuration through 1M churn
// steps (about 2M updates) over 20k live pairs and 1,000 destinations, in
// 512-update batches. Each step inserts a fresh pair and, once 20k are
// live, deletes the oldest. Churn destinations cross MinFrequency by
// sampling noise, drift out of the top-k, and fall back; their excursions
// must end, so the alerting set stays small instead of growing with every
// alert ever raised.
func TestChurnAlertsClear(t *testing.T) {
	const (
		steps = 1_000_000
		live  = 20_000
		dests = 1_000
		frame = 512
	)
	m := mustMonitor(t, daemonConfig())
	pair := func(i uint64) uint64 {
		h := hashing.Mix64(i)
		return hashing.PairKey(uint32(h), 0x0A000000+uint32(h>>32)%dests)
	}
	batch := make([]dcs.KeyDelta, 0, frame)
	for i := uint64(0); i < steps; i++ {
		batch = append(batch, dcs.KeyDelta{Key: pair(i), Delta: 1})
		if i >= live {
			batch = append(batch, dcs.KeyDelta{Key: pair(i - live), Delta: -1})
		}
		if len(batch) >= frame-1 {
			m.UpdateBatch(batch)
			batch = batch[:0]
		}
	}
	m.UpdateBatch(batch)

	m.mu.Lock()
	alerting := len(m.alerting)
	m.mu.Unlock()
	raised := m.AlertStats().Raised
	t.Logf("%d updates: %d alerts raised, %d destinations alerting at the end", m.Updates(), raised, alerting)
	if raised == 0 {
		t.Fatal("the churn raised no alert, so the test shows nothing about clearing")
	}
	if alerting > 100 {
		t.Fatalf("%d destinations still alerting after %d alerts; their excursions never ended", alerting, raised)
	}
}
