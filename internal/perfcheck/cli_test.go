package perfcheck

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fixture returns the absolute path of one testdata fixture module, skipping
// the test when the go tool is unavailable (the e2e tests really compile).
func fixture(t *testing.T, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	abs, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestMainCleanFixture(t *testing.T) {
	var b strings.Builder
	pins := []Pin{
		{Contract: BCE, Pkg: "fixtureclean", Name: "Sum", Source: "test:1"},
		{Contract: Inline, Pkg: "fixtureclean", Name: "Sum", Source: "test:2"},
		{Contract: Allocfree, Pkg: "fixtureclean", Name: "Fill", Source: "test:3"},
	}
	code, err := Main(Options{Dir: fixture(t, "cleanmod"), Pins: pins}, &b)
	if err != nil || code != 0 {
		t.Fatalf("Main(clean) = %d, %v\n%s", code, err, b.String())
	}
	if out := b.String(); out != "" {
		t.Errorf("clean run produced output:\n%s", out)
	}
}

func TestMainDirtyFixture(t *testing.T) {
	var b strings.Builder
	code, err := Main(Options{Dir: fixture(t, "dirtymod")}, &b)
	if err != nil {
		t.Fatalf("Main(dirty): %v", err)
	}
	if code != 1 {
		t.Fatalf("Main(dirty) = %d, want 1\n%s", code, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"[allocfree] Box: heap allocation in //lint:allocfree function: v escapes to heap",
		"[bce] At: residual bounds check in //lint:bce function: Found IsInBounds",
		"stale //lint:bceok",
		"cannot inline Recurse",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dirty output missing %q:\n%s", want, out)
		}
	}
	// The acknowledged escapes in BoxOK/AtOK are suppressed, not violations.
	for _, reject := range []string{"BoxOK", "AtOK"} {
		if strings.Contains(out, reject) {
			t.Errorf("plain output reports suppressed function %s:\n%s", reject, out)
		}
	}
	if !strings.Contains(out, "4 violation(s)") {
		t.Errorf("dirty output summary wrong (want 4 violations):\n%s", out)
	}
}

func TestMainDirtyFixtureJSON(t *testing.T) {
	var b strings.Builder
	code, err := Main(Options{Dir: fixture(t, "dirtymod"), JSON: true}, &b)
	if err != nil || code != 1 {
		t.Fatalf("Main(dirty,json) = %d, %v\n%s", code, err, b.String())
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var summary jsonSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("summary trailer: %v\n%s", err, lines[len(lines)-1])
	}
	if !summary.Summary || summary.Tool != "perfcheck" || summary.Findings != 4 || summary.Suppressed != 2 {
		t.Errorf("summary = %+v, want 4 findings + 2 suppressed", summary)
	}
	suppressed := 0
	for _, line := range lines[:len(lines)-1] {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("finding line %q: %v", line, err)
		}
		if f.Suppressed {
			suppressed++
		}
	}
	if suppressed != 2 {
		t.Errorf("JSON stream has %d suppressed findings, want 2 (BoxOK, AtOK)", suppressed)
	}
}

func TestMainContractFilter(t *testing.T) {
	var b strings.Builder
	code, err := Main(Options{
		Dir:       fixture(t, "dirtymod"),
		Contracts: map[Contract]bool{Allocfree: true},
	}, &b)
	if err != nil || code != 1 {
		t.Fatalf("Main(dirty,allocfree) = %d, %v\n%s", code, err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "escapes to heap") {
		t.Errorf("allocfree-only run missing escape findings:\n%s", out)
	}
	for _, reject := range []string{"[bce]", "[inline]", "Recurse", "stale"} {
		if strings.Contains(out, reject) {
			t.Errorf("allocfree-only run leaked %q:\n%s", reject, out)
		}
	}
	if !strings.Contains(out, "perfcheck: 1 violation(s)") {
		t.Errorf("filtered summary wrong (want 1 violation):\n%s", out)
	}
}

func TestMainPinDeannotated(t *testing.T) {
	var b strings.Builder
	pins := []Pin{{Contract: BCE, Pkg: "fixtureclean", Name: "Helper", Source: "pins.txt:4"}}
	code, err := Main(Options{Dir: fixture(t, "cleanmod"), Pins: pins}, &b)
	if err != nil {
		t.Fatalf("Main: %v", err)
	}
	if code != 1 {
		t.Fatalf("Main = %d, want 1\n%s", code, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "clean.go:") || !strings.Contains(out, "pinned in pins.txt:4") ||
		!strings.Contains(out, "not annotated //lint:bce") {
		t.Errorf("pin violation not source-located:\n%s", out)
	}
}

func TestMainPinUnknownSymbol(t *testing.T) {
	var b strings.Builder
	pins := []Pin{{Contract: BCE, Pkg: "fixtureclean", Name: "Nope", Source: "pins.txt:9"}}
	code, err := Main(Options{Dir: fixture(t, "cleanmod"), Pins: pins}, &b)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "unknown symbol fixtureclean:Nope") ||
		!strings.Contains(err.Error(), "pins.txt:9") {
		t.Fatalf("Main(unknown pin) = %d, %v; want exit 2 naming the pin", code, err)
	}
}
