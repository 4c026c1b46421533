// Package metricname is golden-test input covering the telemetry namespace
// contract: dcsketch_ prefix, lower_snake_case, label-block hygiene, and
// exactly-once registration of constant series names.
package metricname

import (
	"strconv"

	"telemetry"
)

const promoted = "dcsketch_promoted_total"

var (
	updates telemetry.Counter
	latency telemetry.Histogram
)

func zero() uint64 { return 0 }

func level() int64 { return 0 }

func good(reg *telemetry.Registry) {
	reg.CounterFunc("dcsketch_server_updates_total", "flow updates ingested", updates.Load)
	reg.GaugeFunc("dcsketch_sketch_sample_size", "pairs in the active sample", level)
	reg.Histogram("dcsketch_server_query_latency_ns", "top-k query latency", &latency)
	reg.CounterFunc("dcsketch_runtime_gc_cycles_total", "completed GC cycles", func() uint64 { return 0 })
	reg.GaugeFunc("dcsketch_runtime_goroutines", "live goroutines", func() int64 { return 0 })
	reg.CounterFunc(`dcsketch_server_frames_total{type="updates"}`, "frames by type", zero)
	reg.CounterFunc(`dcsketch_server_frames_total{type="topk_query"}`, "frames by type", zero)
	reg.CounterFunc(promoted, "registered through a named constant", zero)
}

func badPrefix(reg *telemetry.Registry) {
	reg.CounterFunc("server_updates_total", "missing namespace", zero) // want `family must begin with the module namespace "dcsketch_"`
	reg.GaugeFunc("sketch_depth", "missing namespace", level)          // want `family must begin with the module namespace "dcsketch_"`
}

func badSnake(reg *telemetry.Registry) {
	reg.CounterFunc("dcsketch_serverUpdates_total", "camelCase", zero) // want `family is not lower_snake_case`
	reg.GaugeFunc("dcsketch_sketch:depth", "colon", level)             // want `family is not lower_snake_case`
	reg.CounterFunc("dcsketch_server__updates", "doubled", zero)       // want `family contains a doubled underscore`
	reg.CounterFunc("dcsketch_server_updates_", "trailing", zero)      // want `family ends with an underscore`
	reg.Histogram("dcsketch_server-updates", "kebab", &latency)        // want `family is not lower_snake_case`
}

func badLabels(reg *telemetry.Registry) {
	reg.CounterFunc(`dcsketch_frames_total{type="updates"`, "unterminated", zero)  // want `unterminated label block`
	reg.CounterFunc(`dcsketch_frames_total{Type="updates"}`, "upper label", zero)  // want `label name "Type" is not lower_snake_case`
	reg.CounterFunc(`dcsketch_frames_total{type=updates}`, "unquoted value", zero) // want `label type has a malformed quoted value`
	reg.CounterFunc(`dcsketch_frames_total{}`, "empty block", zero)                // want `empty label block`
}

// concatenated names get the prefix/snake checks on the constant head and
// are excluded from the uniqueness proof.
func perShard(reg *telemetry.Registry) {
	for i := 0; i < 4; i++ {
		reg.GaugeFunc("dcsketch_pipeline_queue_depth{shard=\""+strconv.Itoa(i)+"\"}", "per-shard depth", level)
		reg.GaugeFunc("queue_depth{shard=\""+strconv.Itoa(i)+"\"}", "bad head", level) // want `family must begin with the module namespace "dcsketch_"`
	}
}

func dynamic(reg *telemetry.Registry, name string) {
	reg.CounterFunc(name, "unauditable", zero)               // want `series name is not statically checkable`
	reg.Histogram(name+"_ns", "still unauditable", &latency) // want `series name is not statically checkable`
	reg.CounterFunc(name, "reviewed fixture", zero)          //lint:metricok hostile-name fixture for registry validation tests
}

func duplicate(reg *telemetry.Registry) {
	reg.CounterFunc("dcsketch_server_updates_total", "again", zero) // want `series "dcsketch_server_updates_total" already registered at a\.go:24`
	reg.CounterFunc(promoted, "again via constant", zero)           // want `series "dcsketch_promoted_total" already registered at a\.go:31`
}
