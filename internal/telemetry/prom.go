package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family, then
// the family's series. Histograms expand into cumulative _bucket series with
// power-of-two "le" bounds plus _sum and _count. Scrape hooks and
// scrape-time probes are invoked here, so this is the one place export cost
// is paid.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range r.scrape() {
		if e.family != lastFamily {
			lastFamily = e.family
			fmt.Fprintf(bw, "# HELP %s %s\n", e.family, escapeHelp(e.help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.family, e.kind)
		}
		if e.kind == KindHistogram {
			writeHistogram(bw, e)
			continue
		}
		fmt.Fprintf(bw, "%s %s\n", e.name, formatValue(e.value()))
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets up to the
// highest occupied power-of-two bound, the mandatory +Inf bucket, _sum and
// _count.
func writeHistogram(w io.Writer, e *entry) {
	hs := e.hist.Snapshot()
	top := 0
	for i, n := range hs.Buckets {
		if n > 0 {
			top = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= top; i++ {
		cum += hs.Buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", e.family, labelBlock(e.labels, `le="`+strconv.FormatUint(BucketUpperBound(i), 10)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", e.family, labelBlock(e.labels, `le="+Inf"`), hs.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", e.family, labelBlock(e.labels, ""), hs.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", e.family, labelBlock(e.labels, ""), hs.Count)
}

// labelBlock joins an entry's own labels with an extra pair into one
// rendered {…} block ("" when both are empty).
func labelBlock(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// formatValue renders a sample value. Integral values (the common case —
// every instrument is integer-backed) print without an exponent so the
// output stays greppable.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving WritePrometheus, for mounting at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ValidatePrometheusText parses a text-format exposition and returns the
// first structural violation: malformed comment lines, samples with invalid
// names or label blocks, unparseable values, samples of undeclared families,
// duplicate TYPE declarations, or histogram families whose samples are not
// _bucket/_sum/_count. It is the checker behind the CI telemetry smoke and
// the fuzz target for the encoder; it accepts any valid exposition, not just
// this package's output.
func ValidatePrometheusText(data []byte) error {
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := validateComment(text, types); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		if err := validateSample(text, types); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

// validateComment checks a # line: HELP/TYPE records are validated and TYPE
// declarations recorded; other comments pass through.
func validateComment(text string, types map[string]string) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", text)
		}
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q for %s", fields[3], fields[2])
		}
		if _, dup := types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		types[fields[2]] = fields[3]
	}
	return nil
}

// validateSample checks one sample line against the declared types.
func validateSample(text string, types map[string]string) error {
	// Split off the value (and optional timestamp) after the series. The
	// series may carry a label block whose quoted values legally contain
	// spaces and braces, so the end of the series is found with a quote-
	// aware scan, not the first space.
	end := seriesEnd(text)
	if end < 0 || end >= len(text) || text[end] != ' ' {
		return fmt.Errorf("missing value in %q", text)
	}
	series, rest := text[:end], strings.TrimSpace(text[end+1:])
	family, _, err := splitSeries(series)
	if err != nil {
		return err
	}
	valueField := strings.SplitN(rest, " ", 2)[0]
	if _, err := strconv.ParseFloat(valueField, 64); err != nil {
		return fmt.Errorf("bad value %q for %s", valueField, series)
	}
	// A sample may belong to its own family or, for histograms/summaries,
	// to a declared parent family via the _bucket/_sum/_count suffixes.
	if _, ok := types[family]; ok {
		if types[family] == "histogram" {
			return fmt.Errorf("histogram family %s has a direct sample", family)
		}
		return nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		parent := strings.TrimSuffix(family, suffix)
		if parent == family {
			continue
		}
		if t, ok := types[parent]; ok && (t == "histogram" || t == "summary") {
			return nil
		}
	}
	return fmt.Errorf("sample %s has no declared family", series)
}

// seriesEnd returns the index just past a sample line's series part (metric
// name plus optional label block), or -1 when a label block never closes.
// Inside quoted label values, braces and spaces do not terminate the block
// and backslash escapes are honored.
func seriesEnd(text string) int {
	brace := -1
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case ' ':
			return i
		case '{':
			brace = i
		}
		if brace >= 0 {
			break
		}
	}
	if brace < 0 {
		return len(text)
	}
	inQuote := false
	for i := brace + 1; i < len(text); i++ {
		switch text[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++
			}
		case '}':
			if !inQuote {
				return i + 1
			}
		}
	}
	return -1
}
