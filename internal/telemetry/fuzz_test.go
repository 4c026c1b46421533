package telemetry

import (
	"strings"
	"testing"
)

// FuzzWritePrometheus drives the text encoder with arbitrary series names,
// help strings, and values. Any name CheckSeriesName accepts must render
// into an exposition that ValidatePrometheusText accepts — the encoder and
// the validator are fuzzed against each other.
func FuzzWritePrometheus(f *testing.F) {
	f.Add("a_total", "help", uint64(1), int64(-2), uint64(3))
	f.Add(`fam{k="v"}`, "multi\nline \\ help", uint64(0), int64(0), ^uint64(0))
	f.Add(`fam{k="sp ace,}{"}`, "", uint64(9), int64(7), uint64(1024))
	f.Add("x:y_total", "h", uint64(1<<40), int64(-1<<40), uint64(1<<63))
	f.Fuzz(func(t *testing.T, name, help string, cv uint64, gv int64, hv uint64) {
		if err := CheckSeriesName(name); err != nil {
			return
		}
		family, _, _ := splitSeries(name)
		reg := NewRegistry()
		reg.Counter(name, help).Add(cv)
		// Distinct families for the other kinds; skip when the fuzzer's
		// family collides with a suffixed variant.
		gname, hname := family+"_g", family+"_h"
		reg.GaugeFunc(gname, help, func() int64 { return gv })
		reg.Histogram(hname, help).Observe(hv)

		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := ValidatePrometheusText([]byte(sb.String())); err != nil {
			t.Fatalf("encoder output rejected by validator: %v\nname=%q help=%q\n%s", err, name, help, sb.String())
		}
	})
}

// FuzzValidatePrometheusText asserts the validator never panics on
// arbitrary input; it is fed raw scrapes in the CI smoke step.
func FuzzValidatePrometheusText(f *testing.F) {
	f.Add([]byte("# TYPE x counter\nx 1\n"))
	f.Add([]byte("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_sum 3\nx_count 1\n"))
	f.Add([]byte(`x{a="unterminated`))
	f.Add([]byte("#"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ValidatePrometheusText(data)
	})
}
