package telemetry

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	var c, shard Counter
	c.Add(7)
	shard.Add(2)
	reg.CounterFunc("p_c_total", "a counter", c.Load)
	reg.CounterFunc(`p_c_total{shard="1"}`, "a counter", shard.Load)
	reg.GaugeFunc("p_g", "a gauge", func() int64 { return -5 })
	var h Histogram
	reg.Histogram("p_h_ns", "a histogram", &h)
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	h.Observe(900)

	out := string(mustRender(t, reg))
	for _, want := range []string{
		"# HELP p_c_total a counter\n",
		"# TYPE p_c_total counter\n",
		"p_c_total 7\n",
		"p_c_total{shard=\"1\"} 2\n",
		"# TYPE p_g gauge\n",
		"p_g -5\n",
		"# TYPE p_h_ns histogram\n",
		"p_h_ns_bucket{le=\"0\"} 1\n",    // the zero observation
		"p_h_ns_bucket{le=\"3\"} 3\n",    // cumulative: 0,3,3
		"p_h_ns_bucket{le=\"1023\"} 4\n", // 900 lands in bucket 10
		"p_h_ns_bucket{le=\"+Inf\"} 4\n",
		"p_h_ns_sum 906\n",
		"p_h_ns_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family even with multiple series.
	if n := strings.Count(out, "# TYPE p_c_total "); n != 1 {
		t.Errorf("TYPE p_c_total appears %d times", n)
	}
	if err := ValidatePrometheusText([]byte(out)); err != nil {
		t.Fatalf("own output does not validate: %v\n%s", err, out)
	}
}

func TestWritePrometheusEscapesHelp(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("esc_total", "line1\nline2 \\ tail", func() uint64 { return 0 })
	out := string(mustRender(t, reg))
	if !strings.Contains(out, `# HELP esc_total line1\nline2 \\ tail`+"\n") {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if err := ValidatePrometheusText([]byte(out)); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestHistogramCumulativeMonotone(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	reg.Histogram("mono_ns", "h", &h)
	for v := uint64(1); v < 1<<20; v *= 3 {
		h.Observe(v)
	}
	out := string(mustRender(t, reg))
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "mono_ns_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, last)
		}
		last = n
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Inc()
	reg.CounterFunc("hh_total", "h", c.Load)
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if err := ValidatePrometheusText(rec.Body.Bytes()); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(rec.Body.String(), "hh_total 1\n") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	bad := []string{
		"no_type_declared 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx\n",
		"# TYPE x wat\n",
		"# HELP 9bad help\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"# TYPE x histogram\nx 1\n",                      // direct sample of a histogram family
		"# TYPE x counter\nx{a=\"unterminated} 1\n",      // label block never closes
		"# TYPE x counter\ny_bucket{le=\"+Inf\"} 1\n",    // _bucket of a non-histogram parent
		"# TYPE x histogram\nx_bucket{le=\"1\"} bogus\n", // bad value on a bucket line
	}
	for _, in := range bad {
		if err := ValidatePrometheusText([]byte(in)); err == nil {
			t.Errorf("ValidatePrometheusText(%q) = nil, want error", in)
		}
	}
	good := []string{
		"",
		"# just a comment\n",
		"#\n",
		"# TYPE x counter\n# HELP x h\nx 1\nx{a=\"v w,{}\"} 2e9\n",
		"# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_sum 3\nx_count 1\n",
		"# TYPE x summary\nx_sum 3\nx_count 1\n",
		"# TYPE x gauge\nx 1 1700000000000\n", // optional timestamp
	}
	for _, in := range good {
		if err := ValidatePrometheusText([]byte(in)); err != nil {
			t.Errorf("ValidatePrometheusText(%q) = %v, want nil", in, err)
		}
	}
}

// TestHandlerContentTypeExact pins the exact exposition-format content type:
// Prometheus scrapers key the text-parser version off this header, so the
// charset parameter is part of the contract, not decoration.
func TestHandlerContentTypeExact(t *testing.T) {
	reg := NewRegistry()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if ct := rec.Header().Get("Content-Type"); ct != want {
		t.Fatalf("Content-Type = %q, want %q", ct, want)
	}
}
