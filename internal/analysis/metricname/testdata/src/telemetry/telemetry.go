// Package telemetry is golden-test scaffolding standing in for the real
// internal/telemetry package (the analyzer recognizes Registry methods by
// package name/path and type name).
package telemetry

// Counter is a monotonic series its layer owns.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v }

// Histogram is a bucketed latency series its layer owns.
type Histogram struct{ n uint64 }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.n++ }

// Registry names registered series.
type Registry struct{}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Histogram registers h, a histogram its layer owns, under name.
func (r *Registry) Histogram(name, help string, h *Histogram) {}

// CounterFunc registers a counter sampled from fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {}
