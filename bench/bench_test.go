package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload to smoke-test size, keeping its shape. The race
// detector slows every tier several times over, so floods are one batch
// each, which keeps the fabric below saturation, and stay live for 150 ms
// instead of 60, so each victim is still live when a reply can show it.
func tiny(w workload) workload {
	w.live = 2000
	w.rate = 50_000
	w.floodSources = batchSize
	w.retractAfter = 150 * time.Millisecond
	w.warmup = 50 * time.Millisecond
	if w.baseU > 0 {
		w.baseU, w.baseD = 10_000, 2_500
	}
	return w
}

// TestSpecMatchesProgram holds BENCHMARK.json and the metric table together.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	declared := append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...)
	if len(declared) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json declares %d metrics, program reports %d", len(declared), len(metricDefs))
	}
	for i, m := range metricDefs {
		d := declared[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || m.layer != (i >= len(s.EndToEnd)) {
			t.Errorf("metric %d: BENCHMARK.json has %+v, program has %+v", i, d, m)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy sizes, untraced and traced:
// the oracle must pass, nothing may fail, every metric BENCHMARK.json
// declares must be printed, and end-to-end metrics must be non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{w: tiny(w), seed: 1, window: 200 * time.Millisecond, traced: traced, setups: 1, spanDir: t.TempDir()}
			res, err := execute(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d: %v", w.name, traced, res.correct, res.failed, res.attempted, res.problems)
			}
			var out bytes.Buffer
			if code := report(&out, []*result{res}, traced); code != 0 {
				t.Errorf("%s traced=%v: report exit %d", w.name, traced, code)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
				if _, err := os.Stat(res.spanPath); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
			for _, m := range want {
				if !strings.Contains(out.String(), "\n"+w.name+" "+m.Name+" ") {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, m.Name)
				}
				if !traced && res.metrics[m.Name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, res.metrics[m.Name])
				}
			}
		}
	}
}

// TestInputDigest pins the generator to its seed: the same seed gives the
// same stream, another seed another one.
func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		digest := func(seed uint64) uint64 {
			base, err := baseUpdates(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return inputDigest(w, newInputs(seed, w.edges), base)
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 digests %d and %d", w.name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 share digest %d", w.name, a)
		}
	}
}
