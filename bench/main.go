// Command bench is the end-to-end benchmark of the collector fabric. It
// hosts the tiers in one process over loopback, built through the
// constructors the daemons use (server.New with ddosmond's flag defaults,
// relay.New with ddosrelay's, export.New for the edges), drives them from a
// seeded generator, checks the final global top-k against a single-box
// reference, and prints every metric as a "workload metric value unit"
// line followed by one JSON summary line. It exits non-zero when the
// oracle finds a mismatch.
//
//	bash bench/run.sh --workload fabric-detect --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --trace 1     # per-layer metrics + span files
//	bash bench/run.sh --workload all --runs 5      # repeat spreads vs BENCHMARK.json bounds
//
// README.md describes the workloads, the metrics and the span-file format.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (the smoke test holds the two together) and adds
// each end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
	// layer marks a per-layer metric, reported by traced runs; the others
	// are end-to-end and reported by untraced runs.
	layer bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", "lower", false},
	{"ingest_updates_per_s", "updates/s", "higher", false},
	{"detect_p50_ms", "ms", "lower", false},
	{"detect_p95_ms", "ms", "lower", false},
	{"heap_live_mb", "MB", "lower", false},

	{"wire.encode_ns_per_update", "ns", "lower", true},
	{"wire.decode_ns_per_update", "ns", "lower", true},
	{"wire.bytes_per_update", "bytes", "lower", true},
	{"export.enqueue_ns_per_batch", "ns", "lower", true},
	{"export.spool_depth_mean", "batches", "lower", true},
	{"export.ack_lag_p50_ms", "ms", "lower", true},
	{"export.roundtrip_p50_us", "us", "lower", true},
	{"export.retransmit_ratio", "ratio", "lower", true},
	{"query.roundtrip_p50_us", "us", "lower", true},
	{"query.roundtrip_p99_us", "us", "lower", true},
	{"server.topk_us", "us", "lower", true},
	{"server.snapshot_capture_p50_ms", "ms", "lower", true},
	{"server.snapshot_capture_max_ms", "ms", "lower", true},
	{"server.dup_ratio", "ratio", "lower", true},
	{"monitor.update_ns", "ns", "lower", true},
	{"monitor.topk_us", "us", "lower", true},
	{"tdcs.update_ns", "ns", "lower", true},
	{"tdcs.topk_ns", "ns", "lower", true},
	{"tdcs.recall_at_10", "ratio", "higher", true},
	{"tdcs.rel_error_at_10", "ratio", "lower", true},
	{"dcs.update_ns", "ns", "lower", true},
	{"dcs.merge_ms", "ms", "lower", true},
	{"dcs.marshal_ms", "ms", "lower", true},
	{"dcs.marshal_bytes", "bytes", "lower", true},
	{"pipeline.update_ns", "ns", "lower", true},
	{"pipeline.fold_ms", "ms", "lower", true},
	{"relay.hop_p50_ms", "ms", "lower", true},
	{"relay.upstream_spool_max", "batches", "lower", true},
	{"snapshot.encode_ms", "ms", "lower", true},
	{"snapshot.bytes", "bytes", "lower", true},
	{"runtime.cpu_ns_per_update", "ns", "lower", true},
	{"runtime.alloc_bytes_per_update", "bytes", "lower", true},
	{"runtime.mutex_wait_ms", "ms", "lower", true},
	{"runtime.gc_cycles", "count", "lower", true},
	{"host.steal_ratio", "ratio", "lower", true},
	{"gen.lag_p99_ms", "ms", "lower", true},
	{"trace.overhead_ratio", "ratio", "lower", true},
}

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 reruns each workload traced and reports per-layer metrics")
		runs    = fs.Int("runs", 1, "repeat each workload with seeds seed..seed+runs-1 and report quartiles")
		spanDir = fs.String("spans", ".bench_build", "directory for traced runs' span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		fmt.Fprintf(stderr, "bench: bad arguments (workloads: all")
		for _, w := range workloads {
			fmt.Fprintf(stderr, ", %s", w.name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}

	traced := *trace == 1
	var results []*result
	for _, w := range ws {
		var reps []*result
		for i := 0; i < *runs; i++ {
			rc := runConfig{w: w, seed: *seed + uint64(i), window: time.Duration(*seconds) * time.Second, traced: traced, setups: setups, spanDir: *spanDir}
			if traced {
				rc.setups = 1
			}
			res, err := execute(rc)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if res.failed > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d failed of %d (%s)\n", w.name, res.failed, res.attempted, res.failures)
			}
			for _, p := range res.problems {
				fmt.Fprintf(stderr, "bench: %s: oracle: %s\n", w.name, p)
			}
			reps = append(reps, res)
		}
		res := reps[0]
		if *runs > 1 {
			res = summarize(stdout, reps, traced)
		}
		results = append(results, res)
	}
	return report(stdout, results, traced)
}

// report prints each result's metric lines and then the JSON summary; with
// several workloads the summary keys are "workload/metric".
func report(w io.Writer, results []*result, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		// A -runs summary covers several seeds and has no single digest.
		if res.digest != 0 {
			fmt.Fprintf(w, "%s gen.input_digest %d hash\n", res.workload, res.digest)
		}
		if res.spanPath != "" {
			fmt.Fprintf(w, "%s spans %s file\n", res.workload, res.spanPath)
		}
		for _, m := range metricDefs {
			if m.layer != traced {
				continue
			}
			v := res.metrics[m.name]
			fmt.Fprintf(w, "%s %s %s %s\n", res.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
			key := m.name
			if len(results) > 1 {
				key = res.workload + "/" + m.name
			}
			summary.Metrics[key] = value{v, m.unit}
		}
		summary.Correct = summary.Correct && res.correct
		summary.Attempted += res.attempted
		summary.Failed += res.failed
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(w, `{"correct": false}`)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// summarize prints, for each metric of repeated runs, the median and
// quartiles and the interquartile spread as a share of the median, next to
// the bound BENCHMARK.json gives it; a spread past its bound is flagged. It
// returns a result carrying the medians.
func summarize(w io.Writer, reps []*result, traced bool) *result {
	bounds := readBounds()
	out := &result{workload: reps[0].workload, metrics: map[string]float64{}, correct: true}
	for _, r := range reps {
		out.attempted += r.attempted
		out.failed += r.failed
		out.correct = out.correct && r.correct
	}
	for _, m := range metricDefs {
		if m.layer != traced {
			continue
		}
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.metrics[m.name]
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		if b, ok := bounds[m.name]; ok && spread > b {
			flag = " SPREAD>BOUND"
		}
		fmt.Fprintf(w, "%s %s median %.6g q1 %.6g q3 %.6g spread %.4f bound %.2f %s%s\n",
			out.workload, m.name, med, q1, q3, spread, bounds[m.name], m.unit, flag)
		out.metrics[m.name] = med
	}
	return out
}

// readBounds loads the end-to-end bounds from BENCHMARK.json in the working
// directory or its parent; without the file no metric is flagged.
func readBounds() map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	bounds := map[string]float64{}
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err == nil && json.Unmarshal(data, &spec) == nil {
			for _, m := range spec.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
		break
	}
	return bounds
}
