package telemetry

import (
	"expvar"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	reg := NewRegistry()
	g := int64(7)
	reg.GaugeFunc("g", "gauge", func() int64 { return g })
	g -= 10
	if s := reg.Snapshot(); len(s) != 1 || s[0].Kind != KindGauge || s[0].Value != -3 {
		t.Fatalf("gauge probe snapshot = %+v, want one gauge reading -3", s)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {^uint64(0), 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	want := make(map[int]uint64)
	var sum uint64
	for _, c := range cases {
		want[c.bucket]++
		sum += c.v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if h.Count() != s.Count {
		t.Fatalf("Count() = %d, want %d", h.Count(), s.Count)
	}
}

func TestBucketUpperBound(t *testing.T) {
	if BucketUpperBound(0) != 0 {
		t.Fatalf("bound(0) = %d", BucketUpperBound(0))
	}
	if BucketUpperBound(1) != 1 {
		t.Fatalf("bound(1) = %d", BucketUpperBound(1))
	}
	if BucketUpperBound(11) != 2047 {
		t.Fatalf("bound(11) = %d", BucketUpperBound(11))
	}
	if BucketUpperBound(64) != ^uint64(0) {
		t.Fatalf("bound(64) = %d", BucketUpperBound(64))
	}
	// Every observation must land in the bucket whose bound covers it.
	for i := 1; i < HistogramBuckets; i++ {
		lo, hi := BucketUpperBound(i-1)+1, BucketUpperBound(i)
		var h Histogram
		h.Observe(lo)
		h.Observe(hi)
		if h.Snapshot().Buckets[i] != 2 {
			t.Fatalf("bucket %d: bounds [%d,%d] not covered", i, lo, hi)
		}
	}
}

func TestCheckSeriesName(t *testing.T) {
	valid := []string{
		"a", "dcsketch_x_total", "x:y", `f{a="b"}`, `f{a="b",c="d"}`,
		`f{a="b",}`, `f{a="x,y"}`, `f{a="x}y"}`, `f{a="sp ace"}`, `f{a="q\"q"}`,
		`f{a="b\\c"}`, `f{a="n\nn"}`,
	}
	for _, name := range valid {
		if err := CheckSeriesName(name); err != nil {
			t.Errorf("CheckSeriesName(%q) = %v, want nil", name, err)
		}
	}
	invalid := []string{
		"", "9x", "a-b", "f{}", "f{a}", `f{a=b}`, `f{a="b"`, `f{1a="b"}`,
		`f{a="b"x="y"}`, `f{a="b`, `f{a="b\q"}`, "f{a=\"b\nc\"}", `{a="b"}`,
	}
	for _, name := range invalid {
		if err := CheckSeriesName(name); err == nil {
			t.Errorf("CheckSeriesName(%q) = nil, want error", name)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("dup_total", "h")
	mustPanic("duplicate", func() { reg.Counter("dup_total", "h") })
	mustPanic("bad name", func() { reg.Counter("9bad", "h") })
	mustPanic("family kind conflict", func() { reg.GaugeFunc(`dup_total{a="b"}`, "h", func() int64 { return 0 }) })
	mustPanic("family help conflict", func() { reg.Counter(`dup_total{a="b"}`, "other help") })
	// Same family, same kind and help, different labels is the supported
	// multi-series shape.
	reg.Counter(`dup_total{a="b"}`, "h")
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "counter")
	h := reg.Histogram("h_ns", "hist")
	reg.CounterFunc("cf_total", "probe", func() uint64 { return 11 })
	reg.GaugeFunc("gf", "probe", func() int64 { return -4 })
	c.Add(3)
	h.Observe(100)
	h.Observe(200)

	got := map[string]Sample{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s
	}
	if len(got) != 4 {
		t.Fatalf("snapshot has %d series, want 4", len(got))
	}
	if got["c_total"].Value != 3 || got["c_total"].Kind != KindCounter {
		t.Errorf("c_total = %+v", got["c_total"])
	}
	if got["cf_total"].Value != 11 {
		t.Errorf("cf_total = %+v", got["cf_total"])
	}
	if got["gf"].Value != -4 || got["gf"].Kind != KindGauge {
		t.Errorf("gf = %+v", got["gf"])
	}
	hs := got["h_ns"].Hist
	if hs == nil || hs.Count != 2 || hs.Sum != 300 {
		t.Errorf("h_ns hist = %+v", hs)
	}
}

// TestOnScrape checks that a scrape hook runs once per export, Snapshot or
// WritePrometheus, and before the probes that read what it stored.
func TestOnScrape(t *testing.T) {
	reg := NewRegistry()
	hooks, stored := 0, uint64(0)
	reg.OnScrape(func() { hooks++; stored = uint64(10 * hooks) })
	reg.CounterFunc("a_total", "probe", func() uint64 { return stored })
	reg.CounterFunc("b_total", "probe", func() uint64 { return stored + 1 })
	for i, s := range reg.Snapshot() {
		if want := float64(10 + i); s.Value != want {
			t.Fatalf("%s = %v after the first scrape, want %v", s.Name, s.Value, want)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if hooks != 2 {
		t.Fatalf("two exports ran the hook %d times, want 2", hooks)
	}
	if !strings.Contains(sb.String(), "a_total 20\n") || !strings.Contains(sb.String(), "b_total 21\n") {
		t.Fatalf("the rendering did not read the second scrape's state:\n%s", sb.String())
	}
}

func TestPublishExpvar(t *testing.T) {
	stale := NewRegistry()
	stale.Counter("ev_stale_total", "h").Add(1)
	stale.PublishExpvar("telemetry_test")
	reg := NewRegistry()
	reg.Counter("ev_c_total", "h").Add(5)
	reg.Histogram("ev_h_ns", "h").Observe(10)
	// Re-publishing (same or another registry) must not panic, and the
	// name serves the registry published last.
	reg.PublishExpvar("telemetry_test")
	reg.PublishExpvar("telemetry_test")

	v := expvar.Get("telemetry_test")
	if v == nil {
		t.Fatal("expvar not published")
	}
	s := v.String()
	for _, want := range []string{`"ev_c_total":5`, `"ev_h_ns"`, `"count":1`, `"sum":10`} {
		if !strings.Contains(s, want) {
			t.Errorf("expvar output %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "ev_stale_total") {
		t.Errorf("expvar output %q still serves the first registry", s)
	}
}

func TestMetricSets(t *testing.T) {
	// All three bundles must register on one registry without name
	// collisions, and every instrument must be non-nil.
	reg := NewRegistry()
	m := NewMonitorMetrics(reg)
	s := NewServerMetrics(reg)
	d := NewDetectorMetrics(reg)
	for name, ptr := range map[string]any{
		"monitor.ChecksTotal":   m.ChecksTotal,
		"monitor.CheckLatency":  m.CheckLatency,
		"monitor.QueryLatency":  m.QueryLatency,
		"server.QueryLatency":   s.QueryLatency,
		"detector.PacketsTotal": d.PacketsTotal,
		"detector.CusumAlarms":  d.CusumAlarmsTotal,
	} {
		switch v := ptr.(type) {
		case *Counter:
			if v == nil {
				t.Errorf("%s is nil", name)
			}
		case *Histogram:
			if v == nil {
				t.Errorf("%s is nil", name)
			}
		}
	}
	if err := ValidatePrometheusText(mustRender(t, reg)); err != nil {
		t.Fatalf("bundle exposition invalid: %v", err)
	}
}

func mustRender(t *testing.T, reg *Registry) []byte {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return []byte(sb.String())
}
