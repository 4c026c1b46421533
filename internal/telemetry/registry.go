package telemetry

import (
	"expvar"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// entry is one registered series: a live instrument or a scrape-time probe.
type entry struct {
	name   string // full series name, including an optional {label="v"} block
	family string // name up to the label block
	labels string // label block content without braces ("" when unlabeled)
	help   string
	kind   Kind

	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() int64
}

// Registry holds a set of named series and renders them as Prometheus text,
// expvar, or a structured snapshot. Registration normally happens once at
// wiring time; instruments themselves are recorded into without touching the
// registry (or its lock) at all.
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
// is wiring-time code, and a bad series name is a programming error on the
// same footing as a bad expvar.Publish.
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

// Counter registers and returns a live counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers and returns a live gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&entry{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers and returns a live histogram series.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&entry{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// CounterFunc registers a scrape-time counter probe: fn is called on every
// export and must be safe to call from any goroutine (it typically takes the
// owning layer's lock to read single-writer counters, e.g. dcs.QueryStats).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&entry{name: name, help: help, kind: KindCounter, counterFn: fn})
}

// GaugeFunc registers a scrape-time gauge probe; the same contract as
// CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&entry{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// OnScrape registers fn to run once at the start of every export
// (Snapshot, WritePrometheus and the expvar view), before any probe is read
// and outside the registry's lock. A layer whose probes all read one locked
// state takes that read in fn and lets its probes read the result, so a
// scrape takes the layer's lock once rather than once per probe. fn must be
// safe to call from any goroutine.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
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

// scrape begins an export: it runs the OnScrape hooks, then returns the
// entries sorted for export.
func (r *Registry) scrape() []*entry {
	entries, hooks := r.snapshotEntries()
	for _, fn := range hooks {
		fn()
	}
	return entries
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

// value reads an entry's current scalar value, invoking probes.
func (e *entry) value() float64 {
	switch {
	case e.counter != nil:
		return float64(e.counter.Load())
	case e.counterFn != nil:
		return float64(e.counterFn())
	case e.gauge != nil:
		return float64(e.gauge.Load())
	case e.gaugeFn != nil:
		return float64(e.gaugeFn())
	}
	return 0
}

// Snapshot reads every registered series, invoking scrape-time probes. This
// is the embedder API: everything the Prometheus endpoint exports, as data.
func (r *Registry) Snapshot() []Sample {
	entries := r.scrape()
	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Kind: e.kind}
		if e.kind == KindHistogram {
			hs := e.hist.Snapshot()
			s.Hist = &hs
		} else {
			s.Value = e.value()
		}
		out = append(out, s)
	}
	return out
}

// expvarValue renders the registry as a map for expvar.
func (r *Registry) expvarValue() any {
	out := make(map[string]any)
	for _, s := range r.Snapshot() {
		if s.Hist != nil {
			out[s.Name] = map[string]any{
				"count": s.Hist.Count,
				"sum":   s.Hist.Sum,
			}
			continue
		}
		out[s.Name] = s.Value
	}
	return out
}

// expvarSlots maps each name PublishExpvar has published to the registry
// it serves, an *atomic.Pointer[Registry].
var expvarSlots sync.Map

// PublishExpvar publishes the registry's snapshot under the given expvar
// name (alongside the standard memstats/cmdline vars on /debug/vars). The
// expvar namespace is process-global and append-only, so the name is
// published once and then serves the registry that published it last: a
// daemon restarted in-process serves its own numbers, not a stopped one's.
// A name that other code has published is left alone.
func (r *Registry) PublishExpvar(name string) {
	slot, loaded := expvarSlots.LoadOrStore(name, new(atomic.Pointer[Registry]))
	p := slot.(*atomic.Pointer[Registry])
	p.Store(r)
	if !loaded && expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(func() any { return p.Load().expvarValue() }))
	}
}
