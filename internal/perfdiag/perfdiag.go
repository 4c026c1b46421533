// Package perfdiag parses the gc compiler's performance-relevant diagnostic
// output: the escape-analysis and inlining decisions printed by
// -gcflags='-m -m' and the residual bounds-check sites printed by
// -gcflags='-d=ssa/check_bce/debug=1'. It is the text layer under
// cmd/perfcheck, which turns these diagnostics into CI-enforced contracts
// on the //lint:allocfree, //lint:bce and //lint:inline annotated hot
// paths.
//
// The input is the combined stdout+stderr of a `go build` run: "# package"
// section headers, one "file.go:line:col: message" diagnostic per line, and
// (at -m -m) indented escape-flow explanations under their escape line. The
// parser is deliberately tolerant — unknown message shapes are skipped, not
// errors — because the exact diagnostic vocabulary shifts between compiler
// releases and a perf gate must fail on contract violations, never on
// incidental new compiler chatter.
package perfdiag

import (
	"bufio"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Kind classifies one compiler diagnostic.
type Kind int

const (
	// KindEscape is a heap-escape decision: "x escapes to heap" or
	// "moved to heap: x".
	KindEscape Kind = iota
	// KindCanInline is a positive inlining decision at a function
	// declaration: "can inline F" (with "-m -m", "can inline F with cost
	// N as: ...").
	KindCanInline
	// KindCannotInline is a negative inlining decision at a function
	// declaration: "cannot inline F: reason".
	KindCannotInline
	// KindInlineCall is an inlined call site: "inlining call to F".
	KindInlineCall
	// KindBoundsCheck is a residual bounds check the SSA pass could not
	// eliminate: "Found IsInBounds" or "Found IsSliceInBounds".
	KindBoundsCheck
)

// String names the kind for diagnostics and test failures.
func (k Kind) String() string {
	switch k {
	case KindEscape:
		return "escape"
	case KindCanInline:
		return "can-inline"
	case KindCannotInline:
		return "cannot-inline"
	case KindInlineCall:
		return "inline-call"
	case KindBoundsCheck:
		return "bounds-check"
	}
	return "unknown"
}

// Diag is one classified compiler diagnostic at a source position. File is
// reproduced as the compiler printed it — package-relative or absolute
// depending on how the build was invoked — so consumers match it by path
// suffix against their own absolute spans.
type Diag struct {
	File string
	Line int
	Col  int
	Kind Kind
	// Name is the subject function of an inlining decision ("(*Sketch).
	// applySig", "slices.SortFunc[...]"); empty for escapes and bounds
	// checks.
	Name string
	// Msg is the full diagnostic message after the position prefix.
	Msg string
}

// diagLine matches one compiler diagnostic: file.go:line:col: message. The
// compiler always emits a column for the diagnostics we classify.
var diagLine = regexp.MustCompile(`^(\S+\.go):(\d+):(\d+): (.*)$`)

// Parse extracts the classified diagnostics from compiler output. Section
// headers ("# package"), indented escape-flow explanations, "does not
// escape" notes, "leaking param" summaries and any other unrecognized lines
// are skipped. A nil slice means no relevant diagnostics.
func Parse(r io.Reader) []Diag {
	var out []Diag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		kind, name, ok := classify(m[4])
		if !ok {
			continue
		}
		if name == "" && (kind == KindCanInline || kind == KindCannotInline || kind == KindInlineCall) {
			// An inline decision needs a subject; the compiler never prints
			// a bare prefix, so a nameless one is corrupt input, not a diag.
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if ln < 1 || col < 1 {
			// The compiler emits 1-based positions; a zero means the line
			// is not a real diagnostic.
			continue
		}
		out = append(out, Diag{File: m[1], Line: ln, Col: col, Kind: kind, Name: name, Msg: m[4]})
	}
	return out
}

// classify maps a diagnostic message to its kind (and subject function for
// inlining decisions). ok is false for messages perfcheck has no use for.
func classify(msg string) (kind Kind, name string, ok bool) {
	switch {
	case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
		return KindBoundsCheck, "", true
	case strings.HasPrefix(msg, "can inline "):
		return KindCanInline, inlineSubject(strings.TrimPrefix(msg, "can inline ")), true
	case strings.HasPrefix(msg, "cannot inline "):
		rest := strings.TrimPrefix(msg, "cannot inline ")
		if i := strings.Index(rest, ": "); i >= 0 {
			rest = rest[:i]
		}
		return KindCannotInline, rest, true
	case strings.HasPrefix(msg, "inlining call to "):
		return KindInlineCall, strings.TrimPrefix(msg, "inlining call to "), true
	case strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap"):
		// "x does not escape" contains neither phrase, so plain
		// non-escape notes never land here.
		return KindEscape, "", true
	}
	return 0, "", false
}

// inlineSubject strips the "-m -m" cost/body suffix from a positive inlining
// decision: "F with cost 57 as: func(...) { ... }" -> "F". Generic
// instantiations keep their full bracketed shape (which may itself contain
// spaces), so only the documented suffix is trimmed, not the first token.
func inlineSubject(rest string) string {
	if i := strings.Index(rest, " with cost "); i >= 0 {
		return rest[:i]
	}
	return rest
}
