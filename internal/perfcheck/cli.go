package perfcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"dcsketch/internal/analysis"
	"dcsketch/internal/perfdiag"
)

// Options configures one perfcheck run of cmd/perfcheck.
type Options struct {
	// Dir is the directory whose enclosing module is checked ("" = cwd).
	Dir string
	// Pins are the coverage requirements (from -require-file / -require).
	Pins []Pin
	// Contracts selects which contracts run (nil/empty = all three).
	Contracts map[Contract]bool
	// JSON switches output to one JSON object per finding plus a summary
	// trailer, matching the sketchlint inventory conventions.
	JSON bool
}

// jsonFinding mirrors Finding for the -json stream.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Contract   string `json:"contract"`
	Func       string `json:"func"`
	Msg        string `json:"msg"`
	Suppressed bool   `json:"suppressed"`
}

// jsonSummary is the trailer line, keyed "summary":true like sketchlint's.
type jsonSummary struct {
	Summary    bool   `json:"summary"`
	Tool       string `json:"tool"`
	Packages   int    `json:"packages"`
	Spans      int    `json:"spans"`
	Findings   int    `json:"findings"`
	Suppressed int    `json:"suppressed"`
	ElapsedMS  int64  `json:"elapsed_ms"`
}

// Main runs the contract checks and writes the report. Exit code semantics
// follow the house tools: 0 clean, 1 violations, 2 operational errors (the
// error return).
func Main(opts Options, w io.Writer) (int, error) {
	start := time.Now()
	dir := opts.Dir
	if dir == "" {
		cwd, err := os.Getwd()
		if err != nil {
			return 2, err
		}
		dir = cwd
	}
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return 2, err
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return 2, err
	}
	spans, decls := CollectSpans(pkgs)
	spans = selectContracts(spans, opts.Contracts)
	pins := selectPins(opts.Pins, opts.Contracts)

	if unknown := UnknownPins(pins, decls); len(unknown) > 0 {
		var b strings.Builder
		for i, p := range unknown {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s pins unknown symbol %s:%s (no such function in the module)", p.Source, p.Pkg, p.Name)
		}
		return 2, fmt.Errorf("%s", b.String())
	}

	if len(spans) == 0 && len(pins) == 0 {
		fmt.Fprintln(w, "perfcheck: no contract annotations found; nothing to check")
		return 0, nil
	}

	var diags []perfdiag.Diag
	if pkgPaths := SpanPackages(spans); len(pkgPaths) > 0 {
		out, err := compileDiagnostics(root, gcflags(spans), pkgPaths)
		if err != nil {
			return 2, err
		}
		diags = perfdiag.Parse(strings.NewReader(out))
	}

	findings := Evaluate(spans, pins, decls, diags, fileLineReader())

	violations, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			violations++
		}
		if opts.JSON {
			line, _ := json.Marshal(jsonFinding{
				File: f.File, Line: f.Line, Col: f.Col, Contract: f.Contract.String(),
				Func: f.Func, Msg: f.Msg, Suppressed: f.Suppressed,
			})
			fmt.Fprintln(w, string(line))
			continue
		}
		if f.Suppressed {
			continue // plain mode reports only gate-relevant findings
		}
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s: %s\n", f.File, f.Line, f.Col, f.Contract, f.Func, f.Msg)
	}

	if opts.JSON {
		line, _ := json.Marshal(jsonSummary{
			Summary: true, Tool: "perfcheck", Packages: len(SpanPackages(spans)), Spans: len(spans),
			Findings: violations, Suppressed: suppressed, ElapsedMS: time.Since(start).Milliseconds(),
		})
		fmt.Fprintln(w, string(line))
	} else if violations > 0 {
		fmt.Fprintf(w, "perfcheck: %d violation(s) across %d annotated span(s)\n", violations, len(spans))
	}
	if violations > 0 {
		return 1, nil
	}
	return 0, nil
}

// selectContracts filters spans to the selected contracts (nil = all).
func selectContracts(spans []Span, sel map[Contract]bool) []Span {
	if len(sel) == 0 {
		return spans
	}
	out := spans[:0:0]
	for _, sp := range spans {
		if sel[sp.Contract] {
			out = append(out, sp)
		}
	}
	return out
}

// selectPins filters pins to the selected contracts (nil = all).
func selectPins(pins []Pin, sel map[Contract]bool) []Pin {
	if len(sel) == 0 {
		return pins
	}
	out := pins[:0:0]
	for _, p := range pins {
		if sel[p.Contract] {
			out = append(out, p)
		}
	}
	return out
}

// gcflags returns the compiler flags the selected spans need: -m -m for
// escape and inlining decisions, the check_bce debug pass for bounds checks.
// One combined invocation serves all contracts and shares its build cache
// with repeated runs (diagnostics are replayed from the cache).
func gcflags(spans []Span) string {
	needMM, needBCE := false, false
	for _, sp := range spans {
		switch sp.Contract {
		case Allocfree, Inline:
			needMM = true
		case BCE:
			needBCE = true
		}
	}
	var parts []string
	if needMM {
		parts = append(parts, "-m", "-m")
	}
	if needBCE {
		parts = append(parts, "-d=ssa/check_bce/debug=1")
	}
	return strings.Join(parts, " ")
}

// compileDiagnostics builds the given packages with the diagnostic flags and
// returns the compiler's combined output. The -gcflags value applies to the
// packages named on the command line.
func compileDiagnostics(root, flags string, pkgPaths []string) (string, error) {
	args := append([]string{"build", "-gcflags=" + flags}, pkgPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// fileLineReader returns a LineReader over real files, caching each file's
// lines across the many per-line suppression probes Evaluate makes.
func fileLineReader() LineReader {
	cache := map[string][]string{}
	return func(file string, line int) string {
		lines, ok := cache[file]
		if !ok {
			data, err := os.ReadFile(file)
			if err != nil {
				cache[file] = nil
				return ""
			}
			lines = strings.Split(string(data), "\n")
			cache[file] = lines
		}
		if line < 1 || line > len(lines) {
			return ""
		}
		return lines[line-1]
	}
}
