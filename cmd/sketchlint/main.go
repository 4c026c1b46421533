// Command sketchlint is the project's static-analysis driver: a
// multichecker running the thirteen dcsketch invariant analyzers over the
// whole module.
//
//	seedcompat     sketch Merge/Subtract/Fold operands must share one Config/seed
//	lockcheck      '// guarded by <mu>' fields need the named mutex held
//	wireerr        no discarded errors on the wire path
//	deltasign      no raw integer→int64 delta conversions into Update APIs
//	allocfree      //lint:allocfree functions stay allocation-free over their call graph
//	scratchsafe    //lint:scratch buffers must not escape their owner
//	poolcheck      sync.Pool Get/Put balance and length-reset discipline
//	lockorder      no cyclic lock acquisition; //lint:lockorder pins declare the order
//	goroleak       every go spawn needs a provable join or shutdown path
//	atomicfield    shared words are typed atomics, never sync/atomic package functions
//	msgexhaustive  every wire MsgType is encoded, decoded, tested, printed, routed
//	asmabi         asm stubs: //go:noescape, a named test, NOSPLIT TEXT; DATA fits GLOBL
//	metricname     telemetry series are dcsketch_-prefixed snake_case, registered once
//
// Usage:
//
//	sketchlint ./...
//	sketchlint -analyzers seedcompat,wireerr ./...
//	sketchlint -json ./...
//	sketchlint -inventory ./...
//
// Diagnostics print as file:line:col: analyzer: message, and the exit status
// is 1 when any unsuppressed diagnostic is reported (the CI `check` target
// treats that as failure). With -json, every diagnostic — suppressed ones
// included, flagged "suppressed": true — is emitted as one JSON object per
// line, keeping the module's suppression inventory machine-auditable; after
// the diagnostics, one summary object per analyzer ("summary": true) reports
// its package count, finding and suppression tallies, and elapsed time.
// -inventory combines both in a single pass: text diagnostics for humans,
// then the per-analyzer JSON summary trailers plus one total line, so CI
// gets the gate and the suppression inventory from one module load. The
// //lint: escape hatches and markers are documented in DESIGN.md and the
// internal/analysis package doc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"dcsketch/internal/analysis"
	"dcsketch/internal/analysis/allocfree"
	"dcsketch/internal/analysis/asmabi"
	"dcsketch/internal/analysis/atomicfield"
	"dcsketch/internal/analysis/deltasign"
	"dcsketch/internal/analysis/goroleak"
	"dcsketch/internal/analysis/lockcheck"
	"dcsketch/internal/analysis/lockorder"
	"dcsketch/internal/analysis/metricname"
	"dcsketch/internal/analysis/msgexhaustive"
	"dcsketch/internal/analysis/poolcheck"
	"dcsketch/internal/analysis/scratchsafe"
	"dcsketch/internal/analysis/seedcompat"
	"dcsketch/internal/analysis/wireerr"
)

// analyzers is the full suite, in report order.
var analyzers = []*analysis.Analyzer{
	seedcompat.Analyzer,
	lockcheck.Analyzer,
	wireerr.Analyzer,
	deltasign.Analyzer,
	allocfree.Analyzer,
	scratchsafe.Analyzer,
	poolcheck.Analyzer,
	lockorder.Analyzer,
	goroleak.Analyzer,
	atomicfield.Analyzer,
	msgexhaustive.Analyzer,
	asmabi.Analyzer,
	metricname.Analyzer,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// jsonDiagnostic is the -json wire shape: one object per line per diagnostic.
type jsonDiagnostic struct {
	Analyzer   string `json:"analyzer"`
	Position   string `json:"position"` // file:line:col
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonSummary is the -json per-analyzer trailer: counts and timing for the
// suppression inventory (one object per analyzer, after all diagnostics).
type jsonSummary struct {
	Summary    bool    `json:"summary"` // always true, distinguishes the trailer
	Analyzer   string  `json:"analyzer"`
	Packages   int     `json:"packages"`
	Findings   int     `json:"findings"` // unsuppressed diagnostics
	Suppressed int     `json:"suppressed"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// analyzerStats accumulates one analyzer's counters across packages.
type analyzerStats struct {
	packages   int
	findings   int
	suppressed int
	elapsed    time.Duration
}

// run executes the multichecker and returns the process exit code: 0 clean,
// 1 when unsuppressed diagnostics were reported.
func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("sketchlint", flag.ContinueOnError)
	var (
		names     = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		list      = fs.Bool("list", false, "list available analyzers and exit")
		jsonMode  = fs.Bool("json", false, "emit one JSON object per diagnostic (suppressed ones included) instead of text")
		inventory = fs.Bool("inventory", false, "text diagnostics plus the JSON summary trailers and elapsed totals in one pass")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *jsonMode && *inventory {
		return 2, fmt.Errorf("-json and -inventory are mutually exclusive (-inventory already emits the JSON trailers)")
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(w, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	suite, err := selectAnalyzers(*names)
	if err != nil {
		return 2, err
	}
	// Package patterns: sketchlint always analyzes the enclosing module;
	// "./..." (the only supported pattern) is accepted for familiarity.
	for _, pat := range fs.Args() {
		if pat != "./..." && pat != "." {
			return 2, fmt.Errorf("unsupported package pattern %q (sketchlint analyzes the whole module; use ./...)", pat)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return 2, err
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return 2, err
	}
	mod := analysis.NewModule(pkgs)

	enc := json.NewEncoder(w)
	stats := map[string]*analyzerStats{}
	actionable := 0
	for _, pkg := range pkgs {
		for _, a := range suite {
			st := stats[a.Name]
			if st == nil {
				st = &analyzerStats{}
				stats[a.Name] = st
			}
			start := time.Now()
			ds, err := analysis.Run(a, pkg, mod)
			st.elapsed += time.Since(start)
			st.packages++
			if err != nil {
				return 2, err
			}
			for _, d := range ds {
				pos := pkg.Fset.Position(d.Pos)
				if *jsonMode {
					if err := enc.Encode(jsonLine(pos.String(), d)); err != nil {
						return 2, err
					}
				} else if !d.Suppressed {
					fmt.Fprintf(w, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
				}
				if d.Suppressed {
					st.suppressed++
				} else {
					st.findings++
					actionable++
				}
			}
		}
	}
	if *jsonMode || *inventory {
		var totalSuppressed int
		var totalElapsed time.Duration
		for _, a := range suite {
			st := stats[a.Name]
			totalSuppressed += st.suppressed
			totalElapsed += st.elapsed
			if err := enc.Encode(jsonSummary{
				Summary:    true,
				Analyzer:   a.Name,
				Packages:   st.packages,
				Findings:   st.findings,
				Suppressed: st.suppressed,
				ElapsedMS:  float64(st.elapsed.Microseconds()) / 1000,
			}); err != nil {
				return 2, err
			}
		}
		if *inventory {
			fmt.Fprintf(w, "sketchlint inventory: %d analyzer(s) over %d package(s): %d finding(s), %d suppressed, %.1fms total\n",
				len(suite), len(pkgs), actionable, totalSuppressed,
				float64(totalElapsed.Microseconds())/1000)
		}
	}
	if actionable > 0 {
		if !*jsonMode {
			fmt.Fprintf(w, "sketchlint: %d problem(s) in %d package(s) analyzed\n", actionable, len(pkgs))
		}
		return 1, nil
	}
	return 0, nil
}

// jsonLine shapes one diagnostic for the -json stream.
func jsonLine(position string, d analysis.Diagnostic) jsonDiagnostic {
	return jsonDiagnostic{
		Analyzer:   d.Analyzer,
		Position:   position,
		Message:    d.Message,
		Suppressed: d.Suppressed,
	}
}

// selectAnalyzers resolves the -analyzers flag to a subset of the suite.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
