// Package perfcheck turns the //lint:allocfree, //lint:bce and //lint:inline
// annotations into compiler-ground-truth contracts. The sketchlint analyzers
// prove hot-path properties at the AST level; perfcheck closes the gap the
// AST cannot see by compiling the annotated packages with
//
//	go build -gcflags='-m -m -d=ssa/check_bce/debug=1' <packages>
//
// and checking the compiler's own decisions against each annotated span:
//
//   - allocfree: no "escapes to heap" / "moved to heap" diagnostic may land
//     inside the span (suppress a reviewed escape with a same-line
//     "//lint:allocok <reason>").
//   - bce: no residual "Found IsInBounds" / "Found IsSliceInBounds" site may
//     land inside the span (suppress a reviewed data-dependent check with a
//     same-line "//lint:bceok <reason>").
//   - inline: the function must get a positive "can inline" decision; a
//     "cannot inline" (the -m -m reason is reported) or a missing decision
//     fails the contract.
//
// Suppressions are themselves checked where perfcheck is the only consumer:
// a //lint:bceok comment inside a span whose line the compiler no longer
// flags is reported as stale, so the acknowledged-bounds-check inventory
// cannot rot. //lint:allocok is exempt from the stale sweep — it is shared
// vocabulary with the sketchlint allocfree analyzer, whose AST diagnostics
// (map growth, append) the compiler's -m output never mentions, so a
// compiler-silent allocok line may still be suppressing a live AST finding.
//
// Coverage pins (a committed pins file, see ParsePins) make the proof surface
// explicit: a pinned function that exists but lost its annotation is a
// source-located violation, and a pin naming no function in the module at all
// is an operational error (misspelling), not a silent pass.
package perfcheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"dcsketch/internal/analysis"
	"dcsketch/internal/perfdiag"
)

// Contract identifies one compiler-verified performance contract.
type Contract int

const (
	// Allocfree requires the span free of heap-escape decisions.
	Allocfree Contract = iota
	// BCE requires the span free of residual bounds checks.
	BCE
	// Inline requires a positive inlining decision for the function.
	Inline

	numContracts = 3
)

// String names the contract as it appears in pins files and directives.
func (c Contract) String() string {
	switch c {
	case Allocfree:
		return "allocfree"
	case BCE:
		return "bce"
	case Inline:
		return "inline"
	}
	return "unknown"
}

// suppression is the same-line acknowledgment directive for the contract
// ("" when the contract has none).
func (c Contract) suppression() string {
	switch c {
	case Allocfree:
		return "allocok"
	case BCE:
		return "bceok"
	}
	return ""
}

// ParseContract resolves a pins-file contract word.
func ParseContract(s string) (Contract, bool) {
	switch s {
	case "allocfree":
		return Allocfree, true
	case "bce":
		return BCE, true
	case "inline":
		return Inline, true
	}
	return 0, false
}

// Span is the source extent of one annotated function under one contract. A
// function carrying several directives yields one Span per contract.
type Span struct {
	Pkg      string // import path
	Name     string // receiver-qualified, e.g. (*Sketch).applySig
	File     string // absolute path
	Start    int    // func keyword line (doc comment excluded)
	End      int    // closing-brace line, inclusive
	Contract Contract
}

// Decl locates one function declaration in the module, annotated or not.
// Used to distinguish a pin on a de-annotated function (violation) from a
// pin on a misspelled symbol (operational error).
type Decl struct {
	File string
	Line int
}

// CollectSpans walks the module's function declarations and returns the
// contract spans for every //lint:allocfree, //lint:bce and //lint:inline
// doc directive, plus the location of every declared function keyed by
// "pkgpath:qualifiedname".
func CollectSpans(pkgs []*analysis.Package) ([]Span, map[string]Decl) {
	var spans []Span
	decls := make(map[string]Decl)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				start := pkg.Fset.Position(fn.Pos()) // excludes the doc comment
				end := pkg.Fset.Position(fn.End())
				name := qualifiedName(fn)
				decls[pkg.Path+":"+name] = Decl{File: start.Filename, Line: start.Line}
				for c := Contract(0); c < numContracts; c++ {
					if _, annotated := analysis.DocDirective(fn.Doc, c.String()); !annotated {
						continue
					}
					spans = append(spans, Span{
						Pkg:      pkg.Path,
						Name:     name,
						File:     start.Filename,
						Start:    start.Line,
						End:      end.Line,
						Contract: c,
					})
				}
			}
		}
	}
	return spans, decls
}

// qualifiedName renders a FuncDecl as name, (Recv).name or (*Recv).name.
func qualifiedName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if st, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = st.X
	}
	base := "?"
	switch t := t.(type) {
	case *ast.Ident:
		base = t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			base = id.Name
		}
	}
	if ptr {
		return "(*" + base + ")." + fn.Name.Name
	}
	return "(" + base + ")." + fn.Name.Name
}

// Pin is one coverage requirement: the named function must carry the
// contract's annotation.
type Pin struct {
	Contract Contract
	Pkg      string // import path
	Name     string // qualified function name
	Source   string // "file:line" of the pin, for error messages
}

// Key returns the decls-map key for the pinned symbol.
func (p Pin) Key() string { return p.Pkg + ":" + p.Name }

// ParsePins reads a pins file: one "<contract> <pkgpath>:<symbol>" per line,
// with '#' comments and blank lines skipped. Methods are written
// (*Recv).name exactly as the annotations render them. Malformed lines and
// unknown contract words are errors carrying name:line.
func ParsePins(r io.Reader, name string) ([]Pin, error) {
	var pins []Pin
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		word, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: malformed pin %q (want \"<contract> <pkgpath>:<symbol>\")", name, n, line)
		}
		c, ok := ParseContract(word)
		if !ok {
			return nil, fmt.Errorf("%s:%d: unknown contract %q (want allocfree, bce or inline)", name, n, word)
		}
		rest = strings.TrimSpace(rest)
		pkg, sym, ok := strings.Cut(rest, ":")
		if !ok || pkg == "" || sym == "" {
			return nil, fmt.Errorf("%s:%d: malformed symbol %q (want <pkgpath>:<symbol>)", name, n, rest)
		}
		pins = append(pins, Pin{Contract: c, Pkg: pkg, Name: sym, Source: fmt.Sprintf("%s:%d", name, n)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return pins, nil
}

// UnknownPins returns the pins naming no declared function in the module —
// misspellings that must be operational errors, never silent passes.
func UnknownPins(pins []Pin, decls map[string]Decl) []Pin {
	var unknown []Pin
	for _, p := range pins {
		if _, ok := decls[p.Key()]; !ok {
			unknown = append(unknown, p)
		}
	}
	return unknown
}

// Finding is one contract violation (or a live suppression, flagged for the
// inventory rather than counted against the gate).
type Finding struct {
	File       string
	Line       int
	Col        int
	Contract   Contract
	Func       string // annotated function, or pinned symbol for pin findings
	Msg        string
	Suppressed bool
}

// LineReader returns the text of one 1-based source line ("" when
// unavailable). The file is the span's absolute path.
type LineReader func(file string, line int) string

// Evaluate checks the compiler diagnostics against the contract spans and
// pins. Returned findings are sorted by position; suppressed escape/bounds
// findings are included with Suppressed=true so callers can inventory them,
// and do not count as violations.
func Evaluate(spans []Span, pins []Pin, decls map[string]Decl, diags []perfdiag.Diag, src LineReader) []Finding {
	var out []Finding

	// Pins on declared-but-unannotated functions: the proof surface shrank.
	have := make(map[string]bool, len(spans))
	for _, sp := range spans {
		have[sp.Contract.String()+"\x00"+sp.Pkg+":"+sp.Name] = true
	}
	for _, p := range pins {
		if have[p.Contract.String()+"\x00"+p.Key()] {
			continue
		}
		d, ok := decls[p.Key()]
		if !ok {
			continue // UnknownPins handles misspellings as hard errors
		}
		out = append(out, Finding{
			File: d.File, Line: d.Line, Col: 1, Contract: p.Contract, Func: p.Key(),
			Msg: fmt.Sprintf("function is pinned in %s but not annotated //lint:%s", p.Source, p.Contract),
		})
	}

	// Escape and bounds-check diagnostics inside matching spans. -m -m can
	// repeat a diagnostic at one position (with and without the flow-trace
	// suffix) and check_bce repeats sites reached through inlining; report
	// each (kind, position) once. Lines acknowledged by the contract's
	// same-line suppression stay in the output flagged Suppressed, and are
	// remembered so the stale-suppression sweep below knows the comment is
	// live.
	seen := map[string]bool{}
	liveSuppression := map[string]bool{} // "file:line" with a compiler-confirmed suppression
	for _, d := range diags {
		var c Contract
		switch d.Kind {
		case perfdiag.KindEscape:
			c = Allocfree
		case perfdiag.KindBoundsCheck:
			c = BCE
		default:
			continue
		}
		sp := matchSpan(spans, c, d)
		if sp == nil {
			continue
		}
		key := fmt.Sprintf("%d\x00%s:%d:%d", c, d.File, d.Line, d.Col)
		if seen[key] {
			continue
		}
		seen[key] = true
		f := Finding{File: sp.File, Line: d.Line, Col: d.Col, Contract: c, Func: sp.Name,
			Msg: describe(c, d.Msg)}
		if strings.Contains(src(sp.File, d.Line), "//lint:"+c.suppression()) {
			f.Suppressed = true
			liveSuppression[fmt.Sprintf("%d\x00%s:%d", c, sp.File, d.Line)] = true
		}
		out = append(out, f)
	}

	// Stale suppressions: a bceok inside a span on a line the compiler no
	// longer flags is a rotted acknowledgment — the reviewed bounds check is
	// gone and the comment must go with it. Only bceok is swept: allocok
	// also suppresses the sketchlint allocfree analyzer's AST diagnostics
	// (map growth, append), which never appear in -m output, so perfcheck
	// cannot decide staleness for it.
	staleSeen := map[string]bool{}
	for _, sp := range spans {
		if sp.Contract != BCE {
			continue
		}
		supp := sp.Contract.suppression()
		for line := sp.Start; line <= sp.End; line++ {
			if !strings.Contains(src(sp.File, line), "//lint:"+supp) {
				continue
			}
			key := fmt.Sprintf("%d\x00%s:%d", sp.Contract, sp.File, line)
			if liveSuppression[key] || staleSeen[key] {
				continue
			}
			staleSeen[key] = true
			out = append(out, Finding{
				File: sp.File, Line: line, Col: 1, Contract: sp.Contract, Func: sp.Name,
				Msg: fmt.Sprintf("stale //lint:%s: the compiler reports no %s on this line", supp, noun(sp.Contract)),
			})
		}
	}

	// Inline pins: every //lint:inline span needs a positive decision at its
	// declaration line.
	for _, sp := range spans {
		if sp.Contract != Inline {
			continue
		}
		decided := false
		for _, d := range diags {
			if d.Line != sp.Start || !fileMatches(sp.File, d.File) {
				continue
			}
			switch d.Kind {
			case perfdiag.KindCanInline:
				decided = true
			case perfdiag.KindCannotInline:
				decided = true
				out = append(out, Finding{
					File: sp.File, Line: d.Line, Col: d.Col, Contract: Inline, Func: sp.Name,
					Msg: d.Msg,
				})
			}
			if decided {
				break
			}
		}
		if !decided {
			out = append(out, Finding{
				File: sp.File, Line: sp.Start, Col: 1, Contract: Inline, Func: sp.Name,
				Msg: "no inlining decision recorded for //lint:inline function (was its package compiled?)",
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Contract < b.Contract
	})
	return out
}

// describe renders the violation message for an in-span compiler diagnostic.
func describe(c Contract, msg string) string {
	return fmt.Sprintf("%s in //lint:%s function: %s", noun(c), c, msg)
}

// noun names what the contract forbids, for messages.
func noun(c Contract) string {
	if c == BCE {
		return "residual bounds check"
	}
	return "heap allocation"
}

// matchSpan finds the annotated function span of the given contract whose
// line range contains the diagnostic. Compiler paths are package-relative or
// absolute depending on invocation; spans hold absolute paths, so match on
// path suffix.
func matchSpan(spans []Span, c Contract, d perfdiag.Diag) *Span {
	for i := range spans {
		sp := &spans[i]
		if sp.Contract != c || d.Line < sp.Start || d.Line > sp.End {
			continue
		}
		if fileMatches(sp.File, d.File) {
			return sp
		}
	}
	return nil
}

// fileMatches reports whether a compiler-printed path refers to the span's
// absolute file. The compiler emits absolute, module-relative or ./-prefixed
// paths depending on how the build names the package; spans hold absolute
// paths, so match on path suffix.
func fileMatches(spanFile, diagFile string) bool {
	diagFile = strings.TrimPrefix(filepath.ToSlash(diagFile), "./")
	return spanFile == diagFile || strings.HasSuffix(spanFile, "/"+diagFile)
}

// SpanPackages returns the sorted set of import paths containing spans.
func SpanPackages(spans []Span) []string {
	set := map[string]bool{}
	for _, sp := range spans {
		set[sp.Pkg] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
