package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered series.
type Kind int

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered series: a layer's histogram or a scrape-time
// probe.
type entry struct {
	name   string // full series name, including an optional {label="v"} block
	family string // name up to the label block
	labels string // label block content without braces ("" when unlabeled)
	help   string
	kind   Kind

	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() int64
}

// Registry names a set of series and renders them as Prometheus text or a
// structured snapshot. It owns no instrument: every Counter and Histogram is
// a field of the layer that records into it, counting from that layer's
// construction, and registration only names it. Registration normally
// happens once at wiring time; instruments are recorded into without
// touching the registry (or its lock) at all.
type Registry struct {
	// mu guards the registration state below. The record path never takes
	// it; only registration and export do.
	mu sync.Mutex
	// entries holds registrations in order. guarded by mu
	entries []*entry
	// byName indexes entries for duplicate detection. guarded by mu
	byName map[string]*entry
	// hooks run once at the start of every export (see OnScrape).
	// guarded by mu
	hooks []func()

	// scrapeMu serializes exports: each holds it from its first hook to
	// its last probe read, so every probe reads what its own export's
	// hooks stored.
	scrapeMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// CheckSeriesName validates a series name: a Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) followed by an optional {label="value",...}
// block with valid label names and no unescaped '"', '\' or '\n' in values.
func CheckSeriesName(name string) error {
	_, _, err := splitSeries(name)
	return err
}

// splitSeries splits a series name into its family and label-block content.
func splitSeries(name string) (family, labels string, err error) {
	brace := strings.IndexByte(name, '{')
	family = name
	if brace >= 0 {
		family = name[:brace]
		rest := name[brace:]
		if !strings.HasSuffix(rest, "}") {
			return "", "", fmt.Errorf("telemetry: series %q: unterminated label block", name)
		}
		labels = rest[1 : len(rest)-1]
		if err := checkLabels(labels); err != nil {
			return "", "", fmt.Errorf("telemetry: series %q: %w", name, err)
		}
	}
	if !validMetricName(family) {
		return "", "", fmt.Errorf("telemetry: series %q: invalid metric name %q", name, family)
	}
	return family, labels, nil
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkLabels validates the content of a {…} block: comma-separated
// name="value" pairs. Values are quoted strings in which '"', '\' and
// newlines must be escaped (\", \\, \n); commas and braces inside quotes are
// legal. A trailing comma after the last pair is accepted, as in the
// exposition format. The parse is quote-aware, not a naive comma split.
func checkLabels(labels string) error {
	if labels == "" {
		return fmt.Errorf("empty label block")
	}
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			return fmt.Errorf("label pair %q missing '='", labels[i:])
		}
		name := labels[i : i+eq]
		if !validLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		n, err := scanQuoted(labels[i:])
		if err != nil {
			return fmt.Errorf("label %s: %w", name, err)
		}
		i += n
		if i == len(labels) {
			return nil
		}
		if labels[i] != ',' {
			return fmt.Errorf("expected ',' after label %s", name)
		}
		i++ // a trailing comma terminates the block legally
	}
	return nil
}

// scanQuoted parses one quoted label value at the start of s and returns its
// length in bytes, including both quotes.
func scanQuoted(s string) (int, error) {
	if len(s) == 0 || s[0] != '"' {
		return 0, fmt.Errorf("value not quoted")
	}
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return i + 1, nil
		case '\n':
			return 0, fmt.Errorf("raw newline in value")
		case '\\':
			if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != '"' && s[i+1] != 'n') {
				return 0, fmt.Errorf("bad escape in value")
			}
			i++
		}
		i++
	}
	return 0, fmt.Errorf("unterminated value")
}

// register validates and stores one entry, panicking on misuse (duplicate
// or malformed names, or a kind/help conflict within a family): registration
// is wiring-time code, and a bad series name is a programming error.
func (r *Registry) register(e *entry) {
	family, labels, err := splitSeries(e.name)
	if err != nil {
		panic(err.Error())
	}
	e.family, e.labels = family, labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		panic("telemetry: duplicate series " + e.name)
	}
	for _, prev := range r.entries {
		if prev.family == e.family && (prev.kind != e.kind || prev.help != e.help) {
			panic("telemetry: family " + e.family + " re-registered with a different kind or help")
		}
	}
	r.byName[e.name] = e
	r.entries = append(r.entries, e)
}

// Histogram registers h, a histogram its layer owns, under name.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.register(&entry{name: name, help: help, kind: KindHistogram, hist: h})
}

// CounterFunc registers a scrape-time counter probe: fn is called on every
// export and must be safe to call from any goroutine. It should take no
// lock: it loads an atomic counter (a layer's Counter registers as
// CounterFunc(name, help, c.Load)), or reads locked state through Scraped.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&entry{name: name, help: help, kind: KindCounter, counterFn: fn})
}

// GaugeFunc registers a scrape-time gauge probe; the same contract as
// CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&entry{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// OnScrape registers fn to run once at the start of every export
// (Snapshot and WritePrometheus), before any probe is read
// and outside the registry's lock. Exports are serialized from the first
// hook to the last probe read, so no other export's hooks run in between.
// fn must be safe to call from any goroutine.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Scraped registers read as an OnScrape hook and returns a function that
// reports what read returned at the start of the current export. A layer
// whose probes read locked or sampled state passes that read here and lets
// every probe call the returned function, so a scrape reads the layer once
// and all its series come from one instant. Call the returned function only
// from probes registered on reg.
func Scraped[T any](reg *Registry, read func() T) func() T {
	var cur T // written by the hook, read by probes: both under reg.scrapeMu
	reg.OnScrape(func() { cur = read() })
	return func() T { return cur }
}

// Sample is one series in a Snapshot.
type Sample struct {
	// Name is the full series name, labels included.
	Name string
	// Kind is the series kind.
	Kind Kind
	// Value is the current value for counters and gauges (unused for
	// histograms).
	Value float64
	// Hist is the histogram state, non-nil only for histograms.
	Hist *HistogramSnapshot
}

// scrape reads every series for one export: it runs the OnScrape hooks,
// then reads each entry, invoking probes, all under scrapeMu. It returns the
// entries sorted for export beside their samples.
func (r *Registry) scrape() ([]*entry, []Sample) {
	entries, hooks := r.snapshotEntries()
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	samples := make([]Sample, len(entries))
	for i, e := range entries {
		samples[i] = e.sample()
	}
	return entries, samples
}

// snapshotEntries returns the entries sorted for export: by family (so
// labeled series of one family are contiguous for the text format), then by
// registration order within the family; and the scrape hooks.
func (r *Registry) snapshotEntries() ([]*entry, []func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := make(map[*entry]int, len(r.entries))
	for i, e := range r.entries {
		order[e] = i
	}
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return order[out[i]] < order[out[j]]
	})
	return out, slices.Clone(r.hooks)
}

// sample reads an entry's current state, invoking its probe.
func (e *entry) sample() Sample {
	s := Sample{Name: e.name, Kind: e.kind}
	switch {
	case e.hist != nil:
		hs := e.hist.Snapshot()
		s.Hist = &hs
	case e.counterFn != nil:
		s.Value = float64(e.counterFn())
	case e.gaugeFn != nil:
		s.Value = float64(e.gaugeFn())
	}
	return s
}

// Snapshot reads every registered series, invoking scrape-time probes. This
// is the embedder API: everything the Prometheus endpoint exports, as data.
func (r *Registry) Snapshot() []Sample {
	_, samples := r.scrape()
	return samples
}
