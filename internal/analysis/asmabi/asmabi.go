// Package asmabi implements the sketchlint analyzer for the parts of the
// Go↔assembly contract of the internal/vec AVX2 kernels that no part of the
// Go toolchain checks. A forgotten //go:noescape silently turns the ~110ns
// update path into heap traffic, and an untested asm entry point can drift
// from its portable reference unnoticed.
//
// For every package that directly contains .s files, the analyzer checks:
//
//   - Every bodyless Go declaration (asm stub) carries //go:noescape.
//   - Every stub is referenced by name in at least one of the package's
//     _test.go files (the differential asm-vs-reference tests the house
//     pattern requires for every asm entry point).
//   - The stub's TEXT directive is marked NOSPLIT (the kernels are leaf
//     routines; a missing NOSPLIT re-admits stack-split preemption points).
//   - Every DATA directive's sym<> has a GLOBL declaration and fits inside
//     its declared size. The linker rejects oversized DATA only for symbols
//     that reachable code references; this check covers every symbol.
//
// The rest of the contract is checked where the toolchain already runs:
// `go vet` (asmdecl) checks TEXT argument sizes, name+off(FP) offsets and
// TEXT symbols without a Go declaration; `GOARCH=arm64 go vet` checks that
// the !amd64 fallback declares each function with the same signature; and
// the linker under `go test` resolves static symbols and stub bodies.
//
// //lint:asmok on the stub's line suppresses a reviewed finding.
package asmabi

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"dcsketch/internal/analysis"
)

// Analyzer is the asmabi analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "asmabi",
	Doc:       "assembly stubs need //go:noescape, a differential test and a NOSPLIT TEXT; DATA needs a GLOBL it fits in",
	Directive: "asmok",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if len(pass.Files) == 0 {
		return nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Package).Filename)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		// The golden harness and module loader have already parsed the
		// package; a scan failure here means the dir is synthetic — skip.
		return nil
	}
	if len(bp.SFiles) == 0 {
		return nil
	}

	asm, err := parseAsmFiles(dir, bp.SFiles)
	if err != nil {
		return err
	}
	testedNames := testIdentifiers(dir, append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...))

	// Go stubs: bodyless function declarations implemented in assembly,
	// visited in source order so diagnostics are deterministic.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body != nil || fn.Recv != nil {
				continue
			}
			name := fn.Name.Name
			if !hasDirective(fn, "//go:noescape") {
				pass.Reportf(fn.Name.Pos(), "asm stub %s is missing //go:noescape — the compiler will assume its pointer arguments escape", name)
			}
			if !testedNames[name] {
				pass.Reportf(fn.Name.Pos(), "asm entry point %s has no differential asm-vs-reference test (no package test references it by name)", name)
			}
			if impl, ok := asm.texts[name]; ok && !impl.nosplit {
				pass.Reportf(fn.Name.Pos(), "%s: TEXT ·%s is not marked NOSPLIT (asm kernels must be leaf routines)", impl.loc(), name)
			}
		}
	}

	// Data findings have no Go line to anchor to; report them at the
	// package clause with the .s location in the message.
	pkgPos := pass.Files[0].Name.Pos()
	for _, g := range asm.staticList {
		if g.globlSize < 0 {
			pass.Reportf(pkgPos, "%s: DATA for %s<> has no GLOBL declaration", g.loc(), g.name)
		} else if g.dataEnd > g.globlSize {
			pass.Reportf(pkgPos, "%s: DATA for %s<> extends past GLOBL size (%d > %d bytes)", g.loc(), g.name, g.dataEnd, g.globlSize)
		}
	}
	return nil
}

// hasDirective reports whether the declaration's doc group carries the exact
// directive comment.
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// testIdentifiers parses the package's test files and returns every
// identifier they mention, the resolution domain for the differential-test
// requirement.
func testIdentifiers(dir string, names []string) map[string]bool {
	idents := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			continue // unparseable test files are not this analyzer's finding
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
	}
	return idents
}

// --- assembly parsing --------------------------------------------------------

// asmFunc is one TEXT symbol.
type asmFunc struct {
	file    string
	line    int
	nosplit bool
}

func (f *asmFunc) loc() string { return fmt.Sprintf("%s:%d", f.file, f.line) }

// asmStatic is one sym<> static data symbol.
type asmStatic struct {
	name      string
	file      string
	line      int   // first DATA or the GLOBL line
	globlSize int64 // -1 when no GLOBL seen
	dataEnd   int64 // highest offset+size across DATA directives
}

func (s *asmStatic) loc() string { return fmt.Sprintf("%s:%d", s.file, s.line) }

// asmIndex is the parsed view of a package's assembly files.
type asmIndex struct {
	texts      map[string]*asmFunc
	statics    map[string]*asmStatic
	staticList []*asmStatic
}

var (
	textRE  = regexp.MustCompile(`^TEXT\s+(?:[A-Za-z0-9_/]*)·([A-Za-z0-9_]+)\(SB\)(.*)$`)
	dataRE  = regexp.MustCompile(`^DATA\s+([A-Za-z0-9_]+)<>\+(0[xX][0-9a-fA-F]+|\d+)\(SB\)/(\d+)`)
	globlRE = regexp.MustCompile(`^GLOBL\s+([A-Za-z0-9_]+)<>\(SB\)(.*)$`)
	sizeRE  = regexp.MustCompile(`\$(-?\d+)`)
)

// parseAsmFiles builds the symbol index over the package's .s files with a
// line-oriented scan of the TEXT, DATA and GLOBL directives.
func parseAsmFiles(dir string, names []string) (*asmIndex, error) {
	idx := &asmIndex{texts: map[string]*asmFunc{}, statics: map[string]*asmStatic{}}
	for _, name := range names {
		if err := idx.parseFile(dir, name); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

func (idx *asmIndex) parseFile(dir, name string) error {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := raw
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "TEXT"):
			m := textRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			fn := &asmFunc{file: name, line: lineNo}
			for _, part := range strings.Split(m[2], ",") {
				if flagsHaveNosplit(part) {
					fn.nosplit = true
				}
			}
			idx.texts[m[1]] = fn
		case strings.HasPrefix(line, "DATA"):
			m := dataRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			off, _ := strconv.ParseInt(m[2], 0, 64)
			size, _ := strconv.ParseInt(m[3], 10, 64)
			s := idx.static(m[1], name, lineNo)
			if end := off + size; end > s.dataEnd {
				s.dataEnd = end
			}
		case strings.HasPrefix(line, "GLOBL"):
			m := globlRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			s := idx.static(m[1], name, lineNo)
			if sm := sizeRE.FindStringSubmatch(m[2]); sm != nil {
				s.globlSize, _ = strconv.ParseInt(sm[1], 10, 64)
			}
		}
	}
	return nil
}

// static returns (creating on first sight) the index entry for sym<>.
func (idx *asmIndex) static(name, file string, line int) *asmStatic {
	s, ok := idx.statics[name]
	if !ok {
		s = &asmStatic{name: name, file: file, line: line, globlSize: -1}
		idx.statics[name] = s
		idx.staticList = append(idx.staticList, s)
	}
	return s
}

// flagsHaveNosplit reports whether a TEXT flags operand includes NOSPLIT,
// accepting both the symbolic textflag.h form and a numeric literal.
func flagsHaveNosplit(flags string) bool {
	for _, tok := range strings.Split(flags, "|") {
		tok = strings.TrimSpace(tok)
		if tok == "NOSPLIT" {
			return true
		}
		if n, err := strconv.ParseInt(tok, 0, 64); err == nil && n&4 != 0 {
			return true
		}
	}
	return false
}
