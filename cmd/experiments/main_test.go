package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nonsense"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, &strings.Builder{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunScenarioTable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "scenarios", "-seed", "3"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Robustness", "victim", "crowd-server"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig8CSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "fig8a", "-scale", "0.003", "-seeds", "1", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "z,k,recall\n") {
		t.Fatalf("csv output malformed:\n%s", out)
	}
	if strings.Count(out, "\n") < 10 {
		t.Fatalf("csv output too short:\n%s", out)
	}
}

func TestRunSpace(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "space"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "96000000") {
		t.Fatalf("space table missing the paper's brute-force figure:\n%s", sb.String())
	}
}

// pinnedTables are the deterministic accuracy and detection tables: their
// output depends only on the seed, not on timing or the host, so a seed-7
// run is compared byte for byte with testdata/seed7_tables.golden. A change
// that moves one of them on purpose regenerates the file with
//
//	go run ./cmd/experiments -seed 7 -run <pinnedTables> > cmd/experiments/testdata/seed7_tables.golden
//
// and states the before and after of each moved row.
const pinnedTables = "fig8a,fig8b,threshold,latency,deployment,scenarios"

func TestPinnedTablesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seed7_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-seed", "7", "-run", pinnedTables}, &sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("seed-7 tables differ from the golden file at line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
