// Package asmabi implements the sketchlint analyzer cross-checking every
// assembly symbol against its Go stub, beyond what `go vet -asmdecl` covers.
// The internal/vec AVX2 kernels only stay correct while the Go declarations,
// the ABI0 frame layout in the .s file, and the portable fallback all agree;
// a drifted stub signature or a forgotten //go:noescape silently turns the
// ~110ns update path into corruption or heap traffic.
//
// For every package that directly contains .s files, the analyzer checks:
//
//   - Every bodyless Go declaration (asm stub) carries //go:noescape, has a
//     TEXT implementation in the package's assembly, and is referenced by
//     name in at least one of the package's _test.go files (the differential
//     asm-vs-reference tests the house pattern requires for every asm entry
//     point).
//   - The TEXT directive is marked NOSPLIT (the kernels are leaf routines;
//     a missing NOSPLIT re-admits stack-split preemption points) and its
//     declared argument size matches the ABI0 layout computed from the Go
//     signature with go/types sizes.
//   - Every name+offset(FP) reference in the body resolves to a parameter
//     or result at exactly that ABI0 offset (unnamed results are addressed
//     as ret, ret1, ...).
//   - Every static data reference sym<>(SB) resolves to a GLOBL declaration
//     in the package's assembly, and no DATA directive extends past its
//     GLOBL-declared size.
//   - Every TEXT symbol has a Go stub (no orphan assembly entry points).
//   - Build-constrained Go files agree with their ignored complements (the
//     amd64/fallback pair): a function declared on both sides must have a
//     textually identical signature, every exported function in a
//     constrained included file needs a fallback declaration, and the
//     fallback must not export functions the host build lacks.
//
// //lint:asmok on the stub's line suppresses a reviewed finding.
package asmabi

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dcsketch/internal/analysis"
)

// Analyzer is the asmabi analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "asmabi",
	Doc:       "assembly symbols must match their Go stubs: noescape, NOSPLIT, ABI0 offsets, resolving data references, fallback parity, differential tests",
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
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
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
	pkgPos := pass.Files[0].Name.Pos()

	// Go stubs: bodyless function declarations implemented in assembly.
	// stubList keeps source order so diagnostics are deterministic.
	stubs := map[string]*ast.FuncDecl{}
	var stubList []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body != nil || fn.Recv != nil {
				continue
			}
			stubs[fn.Name.Name] = fn
			stubList = append(stubList, fn)
		}
	}

	testedNames, err := testIdentifiers(dir, append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...))
	if err != nil {
		return err
	}

	for _, fn := range stubList {
		name := fn.Name.Name
		if !hasDirective(fn, "//go:noescape") {
			pass.Reportf(fn.Name.Pos(), "asm stub %s is missing //go:noescape — the compiler will assume its pointer arguments escape", name)
		}
		if !testedNames[name] {
			pass.Reportf(fn.Name.Pos(), "asm entry point %s has no differential asm-vs-reference test (no package test references it by name)", name)
		}
		impl, ok := asm.texts[name]
		if !ok {
			pass.Reportf(fn.Name.Pos(), "asm stub %s has no assembly implementation (no TEXT ·%s in %s)", name, name, strings.Join(bp.SFiles, ", "))
			continue
		}
		if !impl.nosplit {
			pass.Reportf(fn.Name.Pos(), "%s: TEXT ·%s is not marked NOSPLIT (asm kernels must be leaf routines)", impl.loc(), name)
		}
		checkFrame(pass, fn, impl)
		for _, ref := range impl.staticRefs {
			if _, ok := asm.statics[ref.name]; !ok {
				pass.Reportf(fn.Name.Pos(), "%s: TEXT ·%s references undeclared static symbol %s<> (no GLOBL in the package's assembly)", ref.loc(), name, ref.name)
			}
		}
	}

	// Assembly-side findings have no Go line to anchor to; report them at
	// the package clause with the .s location in the message.
	for _, impl := range asm.textList {
		if _, ok := stubs[impl.name]; !ok {
			pass.Reportf(pkgPos, "%s: assembly symbol ·%s has no Go stub in this package", impl.loc(), impl.name)
			for _, ref := range impl.staticRefs {
				if _, ok := asm.statics[ref.name]; !ok {
					pass.Reportf(pkgPos, "%s: TEXT ·%s references undeclared static symbol %s<>", ref.loc(), impl.name, ref.name)
				}
			}
		}
	}
	for _, g := range asm.staticList {
		if g.globlSize >= 0 && g.dataEnd > g.globlSize {
			pass.Reportf(pkgPos, "%s: DATA for %s<> extends past GLOBL size (%d > %d bytes)", g.loc(), g.name, g.dataEnd, g.globlSize)
		}
		if g.globlSize < 0 {
			pass.Reportf(pkgPos, "%s: DATA for %s<> has no GLOBL declaration", g.loc(), g.name)
		}
	}

	return checkParity(pass, dir, bp, pkgPos)
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

// checkFrame verifies the TEXT argument size and every FP reference against
// the stub's ABI0 layout.
func checkFrame(pass *analysis.Pass, fn *ast.FuncDecl, impl *asmFunc) {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	offsets, argSize := abi0Layout(sig)
	if impl.argSize >= 0 && impl.argSize != argSize {
		pass.Reportf(fn.Name.Pos(), "%s: TEXT ·%s declares argument size %d, ABI0 layout of the Go signature is %d bytes", impl.loc(), impl.name, impl.argSize, argSize)
	}
	for _, ref := range impl.fpRefs {
		want, ok := offsets[ref.name]
		if !ok {
			pass.Reportf(fn.Name.Pos(), "%s: %s+%d(FP): ·%s has no parameter or result named %s", ref.loc(), ref.name, ref.off, impl.name, ref.name)
			continue
		}
		if ref.off != want {
			pass.Reportf(fn.Name.Pos(), "%s: %s+%d(FP): ABI0 offset of %s is %d", ref.loc(), ref.name, ref.off, ref.name, want)
		}
	}
}

// abi0Layout computes the ABI0 (memory) argument frame as go vet's asmdecl
// pass does: parameters at sequential aligned offsets from 0(FP), then, when
// there are results, the results from the next pointer-aligned offset. The
// frame size is where the last parameter or result ends, with no rounding:
// func(p *T, n int32) is $0-12, and func(x int32) int32 is $0-12 with ret at
// 8. Unnamed results are addressable as ret, ret1, ret2, ...
func abi0Layout(sig *types.Signature) (map[string]int64, int64) {
	sizes := types.SizesFor("gc", build.Default.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	ptr := sizes.Sizeof(types.Typ[types.UnsafePointer])
	offsets := map[string]int64{}
	off := int64(0)
	place := func(name string, t types.Type) {
		off = align(off, sizes.Alignof(t))
		if name != "" && name != "_" {
			offsets[name] = off
		}
		off += sizes.Sizeof(t)
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		place(p.Name(), p.Type())
	}
	results := sig.Results()
	if results.Len() > 0 {
		off = align(off, ptr)
	}
	for i := 0; i < results.Len(); i++ {
		r := results.At(i)
		name := r.Name()
		if name == "" || name == "_" {
			if i == 0 {
				name = "ret"
			} else {
				name = fmt.Sprintf("ret%d", i)
			}
		}
		place(name, r.Type())
	}
	return offsets, off
}

func align(off, a int64) int64 {
	if a <= 0 {
		return off
	}
	return (off + a - 1) / a * a
}

// testIdentifiers parses the package's test files and returns every
// identifier they mention, the resolution domain for the differential-test
// requirement.
func testIdentifiers(dir string, names []string) (map[string]bool, error) {
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
	return idents, nil
}

// --- amd64/fallback parity ---------------------------------------------------

// checkParity compares the build-constrained included Go files against the
// package's ignored complements (e.g. vec_amd64.go against vec_other.go on
// an amd64 host): shared functions must agree on signature, exported
// functions in constrained files need a fallback declaration, and the
// fallback must not export functions this build lacks.
func checkParity(pass *analysis.Pass, dir string, bp *build.Package, pkgPos token.Pos) error {
	if len(bp.IgnoredGoFiles) == 0 {
		return nil
	}
	fallbackFset := token.NewFileSet()
	fallback := map[string]*ast.FuncDecl{} // name -> decl in ignored files
	fallbackFile := map[string]string{}
	for _, name := range bp.IgnoredGoFiles {
		f, err := parser.ParseFile(fallbackFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				fallback[fn.Name.Name] = fn
				fallbackFile[fn.Name.Name] = name
			}
		}
	}
	if len(fallback) == 0 {
		return nil
	}

	included := map[string]bool{} // every top-level func name in the host build
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				included[fn.Name.Name] = true
			}
		}
	}

	for _, file := range pass.Files {
		if !isConstrained(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			name := fn.Name.Name
			fb, ok := fallback[name]
			if !ok {
				if fn.Name.IsExported() {
					pass.Reportf(fn.Name.Pos(), "exported function %s has no fallback declaration in the package's ignored build-constrained files", name)
				}
				continue
			}
			got := sigString(pass.Fset, fn)
			want := sigString(fallbackFset, fb)
			if got != want {
				pass.Reportf(fn.Name.Pos(), "signature of %s differs from its fallback declaration in %s: %s vs %s", name, fallbackFile[name], got, want)
			}
		}
	}

	names := make([]string, 0, len(fallback))
	for name := range fallback {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if fallback[name].Name.IsExported() && !included[name] {
			pass.Reportf(pkgPos, "%s declares exported fallback-only function %s absent from this build", fallbackFile[name], name)
		}
	}
	return nil
}

// isConstrained reports whether the file carries a //go:build constraint
// (the marker that it has a complementary variant to stay in parity with).
func isConstrained(fset *token.FileSet, file *ast.File) bool {
	pkgLine := fset.Position(file.Package).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line >= pkgLine {
				return false
			}
			if strings.HasPrefix(c.Text, "//go:build") {
				return true
			}
		}
	}
	return false
}

// sigString renders a function's parameter and result types (names elided,
// multi-name fields expanded) for cross-fset comparison.
func sigString(fset *token.FileSet, fn *ast.FuncDecl) string {
	var b strings.Builder
	b.WriteString("func(")
	writeFieldTypes(&b, fset, fn.Type.Params)
	b.WriteString(")")
	if fn.Type.Results != nil && len(fn.Type.Results.List) > 0 {
		b.WriteString(" (")
		writeFieldTypes(&b, fset, fn.Type.Results)
		b.WriteString(")")
	}
	return b.String()
}

func writeFieldTypes(b *strings.Builder, fset *token.FileSet, fields *ast.FieldList) {
	if fields == nil {
		return
	}
	first := true
	for _, f := range fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		t := analysis.ExprString(fset, f.Type)
		for i := 0; i < n; i++ {
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteString(t)
		}
	}
}

// --- assembly parsing --------------------------------------------------------

// asmRef is one symbol reference at a .s location.
type asmRef struct {
	name string
	off  int64
	file string
	line int
}

func (r asmRef) loc() string { return fmt.Sprintf("%s:%d", r.file, r.line) }

// asmFunc is one TEXT symbol and the frame references in its body.
type asmFunc struct {
	name       string
	file       string
	line       int
	nosplit    bool
	argSize    int64 // -1 when the TEXT directive omits it
	fpRefs     []asmRef
	staticRefs []asmRef
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
	textList   []*asmFunc
	statics    map[string]*asmStatic
	staticList []*asmStatic
}

var (
	textRE   = regexp.MustCompile(`^TEXT\s+(?:[A-Za-z0-9_/]*)·([A-Za-z0-9_]+)\(SB\)(.*)$`)
	dataRE   = regexp.MustCompile(`^DATA\s+([A-Za-z0-9_]+)<>\+(0[xX][0-9a-fA-F]+|\d+)\(SB\)/(\d+)`)
	globlRE  = regexp.MustCompile(`^GLOBL\s+([A-Za-z0-9_]+)<>\(SB\)(.*)$`)
	fpRefRE  = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\+(\d+)\(FP\)`)
	staticRE = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)<>(?:\+[0-9a-fA-FxX]+)?\(SB\)`)
	sizeRE   = regexp.MustCompile(`\$(-?\d+)(?:-(\d+))?`)
)

// readFile loads one source file as text.
func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// parseAsmFiles builds the symbol index over the package's .s files with a
// line-oriented scan of the plan9 asm syntax the repository uses.
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
	data, err := readFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	var cur *asmFunc
	for i, raw := range strings.Split(data, "\n") {
		lineNo := i + 1
		line := raw
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "TEXT"):
			cur = nil
			m := textRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			fn := &asmFunc{name: m[1], file: name, line: lineNo, argSize: -1}
			rest := m[2]
			for _, part := range strings.Split(rest, ",") {
				part = strings.TrimSpace(part)
				switch {
				case part == "":
				case strings.HasPrefix(part, "$"):
					if sm := sizeRE.FindStringSubmatch(part); sm != nil && sm[2] != "" {
						fn.argSize, _ = strconv.ParseInt(sm[2], 10, 64)
					}
				default:
					if flagsHaveNosplit(part) {
						fn.nosplit = true
					}
				}
			}
			idx.texts[fn.name] = fn
			idx.textList = append(idx.textList, fn)
			cur = fn
		case strings.HasPrefix(line, "DATA"):
			cur = nil
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
			cur = nil
			m := globlRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			s := idx.static(m[1], name, lineNo)
			if sm := sizeRE.FindStringSubmatch(m[2]); sm != nil {
				s.globlSize, _ = strconv.ParseInt(sm[1], 10, 64)
			}
		default:
			if cur == nil {
				continue
			}
			for _, m := range fpRefRE.FindAllStringSubmatch(line, -1) {
				off, _ := strconv.ParseInt(m[2], 10, 64)
				cur.fpRefs = append(cur.fpRefs, asmRef{name: m[1], off: off, file: name, line: lineNo})
			}
			for _, m := range staticRE.FindAllStringSubmatch(line, -1) {
				cur.staticRefs = append(cur.staticRefs, asmRef{name: m[1], file: name, line: lineNo})
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
