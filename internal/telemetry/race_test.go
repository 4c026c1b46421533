package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentRecordAndScrape hammers every instrument kind from many
// goroutines while other goroutines scrape, snapshot, and register — the
// contract is that recording never blocks on or races with export. Run
// under -race in CI.
func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.CounterFunc("race_c_total", "h", c.Load)
	var g atomic.Int64
	reg.GaugeFunc("race_g", "h", g.Load)
	var h Histogram
	reg.Histogram("race_h_ns", "h", &h)
	// A Scraped read shared by two probes, as the layers register theirs.
	cur := Scraped(reg, g.Load)
	reg.GaugeFunc("race_scraped_a", "h", cur)
	reg.GaugeFunc("race_scraped_b", "h", cur)

	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if err := ValidatePrometheusText([]byte(sb.String())); err != nil {
					t.Errorf("mid-load scrape invalid: %v", err)
					return
				}
				var a, b float64
				for _, s := range reg.Snapshot() {
					switch s.Name {
					case "race_scraped_a":
						a = s.Value
					case "race_scraped_b":
						b = s.Value
					}
				}
				if a != b {
					t.Errorf("one scrape read its Scraped state twice: %v then %v", a, b)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	if got := c.Load(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	if got := h.Count(); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
	if got := g.Load(); got != writers*iters {
		t.Fatalf("gauge = %d, want %d", got, writers*iters)
	}
}
