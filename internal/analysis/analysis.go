// Package analysis is a self-contained static-analysis framework for the
// dcsketch repository, mirroring the shape of golang.org/x/tools/go/analysis
// on top of the standard library's go/ast and go/types only (the build
// environment is offline, so x/tools cannot be a dependency).
//
// An Analyzer inspects one type-checked package at a time through a Pass and
// reports Diagnostics. The project analyzers live in subpackages (seedcompat,
// lockcheck, wireerr, deltasign, allocfree, scratchsafe, poolcheck,
// lockorder, goroleak, atomicfield, msgexhaustive, asmabi, metricname) and
// are driven
// over the whole module by cmd/sketchlint; each is unit-tested against golden
// packages with the analysistest subpackage. Analyzers that reason across
// package boundaries (allocfree's call-graph proofs, lockorder's
// acquisition graph, goroleak's join search, msgexhaustive's dispatch
// scan) additionally receive a Module index over every loaded package.
//
// # The //lint: annotation vocabulary
//
// All source annotations share one syntax, "//lint:<name> [args...]"
// (see ParseDirective), consumed under three grammars:
//
// Same-line suppressions acknowledge a reviewed, intentionally unproven
// construct; the arguments are the free-form reason (always give one):
//
//	//lint:seedok    <reason>   suppress a seedcompat diagnostic
//	//lint:lockok    <reason>   suppress a lockcheck diagnostic
//	//lint:wireok    <reason>   suppress a wireerr diagnostic
//	//lint:deltaok   <reason>   suppress a deltasign diagnostic
//	//lint:allocok   <reason>   suppress an allocfree diagnostic (also
//	                            acknowledges a reviewed escape to
//	                            cmd/perfcheck)
//	//lint:bceok     <reason>   acknowledge a reviewed residual bounds
//	                            check to cmd/perfcheck; stale bceok
//	                            comments are themselves diagnosed
//	//lint:asmok     <reason>   suppress an asmabi diagnostic
//	//lint:scratchok <reason>   suppress a scratchsafe diagnostic
//	//lint:poolok    <reason>   suppress a poolcheck diagnostic
//	//lint:orderok   <reason>   suppress a lockorder diagnostic
//	//lint:daemon    <reason>   the go statement spawns an intentional
//	                            process-lifetime goroutine (goroleak)
//	//lint:atomicok  <reason>   suppress an atomicfield diagnostic
//	//lint:msgok     <reason>   the MsgType constant is asymmetric or
//	                            untested by design (msgexhaustive)
//	//lint:metricok  <reason>   the telemetry series name is intentionally
//	                            outside the namespace contract, e.g. a
//	                            hostile-name test fixture (metricname)
//
// Doc-comment argument directives pass one machine-read argument:
//
//	//lint:locked <mu>   the function is only called with the receiver's
//	                     mutex field <mu> held (consumed by lockcheck)
//
// Doc-comment markers annotate the declaration itself:
//
//	//lint:allocfree          the function (and, transitively, every
//	                          module-internal function it calls) must
//	                          contain no allocation-inducing construct
//	                          (proven by allocfree and ground-truthed
//	                          against escape analysis by cmd/perfcheck)
//	//lint:bce                every bounds check in the function must be
//	                          eliminated by the compiler or acknowledged
//	                          with a same-line //lint:bceok (verified
//	                          against ssa/check_bce by cmd/perfcheck)
//	//lint:inline             the compiler must report the function as
//	                          inlinable ("can inline", budget 80)
//	                          (verified against -m by cmd/perfcheck)
//	//lint:poolown <reason>   the function intentionally retains a
//	                          sync.Pool buffer past its return — ownership
//	                          is handed off (consumed by poolcheck)
//
// Struct fields and package variables carry declaration markers:
//
//	//lint:scratch                  the field is owner-private reusable
//	                                scratch; values derived from it must
//	                                not escape the owning method
//	                                (consumed by scratchsafe)
//	//lint:lockorder before(<lock>) pins the sanctioned acquisition order
//	                                for the annotated mutex: acquiring it
//	                                while <lock> is held is a violation
//	                                even without a completing cycle. <lock>
//	                                resolves as field, Type.field, pkg.var,
//	                                or pkg.Type.field (consumed by
//	                                lockorder)
package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis: a name, documentation, and a Run function
// applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-line description.
	Doc string
	// Directive is the "//lint:<directive>" suppression name honored by
	// Reportf; it defaults to Name.
	Directive string
	// Run inspects a package via pass and reports findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module indexes every package of the load, for analyzers that follow
	// calls across package boundaries (allocfree). Nil when the driver
	// analyzes packages in isolation.
	Module *Module

	// Report receives each diagnostic; the driver and test harness install
	// their own sinks.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Suppressed marks a finding whose source line carries the analyzer's
	// "//lint:<directive>" escape hatch. Suppressed diagnostics do not fail
	// the build; drivers may still surface them (sketchlint -json does) so
	// the suppression inventory stays auditable.
	Suppressed bool
}

// Reportf reports a formatted diagnostic at pos. A "//lint:<directive>"
// suppression on the source line marks the diagnostic Suppressed rather than
// dropping it; sinks that only want actionable findings filter on the flag.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:        pos,
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Suppressed: p.Suppressed(pos),
	})
}

// Suppressed reports whether the line holding pos carries the analyzer's
// "//lint:<directive>" escape hatch.
func (p *Pass) Suppressed(pos token.Pos) bool {
	directive := p.Analyzer.Directive
	if directive == "" {
		directive = p.Analyzer.Name
	}
	return p.LineDirective(pos, directive)
}

// LineDirective reports whether the source line containing pos carries a
// "//lint:<name>" comment (an escape hatch acknowledging a reviewed,
// intentionally unproven construct).
func (p *Pass) LineDirective(pos token.Pos, name string) bool {
	return FileLineDirective(p.Fset, p.FileFor(pos), pos, name)
}

// FileLineDirective reports whether the source line containing pos carries a
// "//lint:<name>" comment in file. It is the file-scoped form of
// Pass.LineDirective, for analyzers inspecting packages other than the one
// their Pass presents (allocfree's transitive call-graph scan).
func FileLineDirective(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	if file == nil {
		return false
	}
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line != line {
				continue
			}
			if directiveName(c.Text) == name {
				return true
			}
		}
	}
	return false
}

// ModulePackages returns every package a module-wide analyzer should index:
// the full Module when the driver supplies one, otherwise a singleton view
// of the pass's own package (the isolated-Run fallback).
func (p *Pass) ModulePackages() []*Package {
	if p.Module != nil {
		return p.Module.Packages()
	}
	return []*Package{{
		Path:      p.Pkg.Path(),
		Fset:      p.Fset,
		Files:     p.Files,
		Types:     p.Pkg,
		TypesInfo: p.TypesInfo,
	}}
}

// FileFor returns the *ast.File whose source range contains pos.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	return fileFor(p.Files, pos)
}

func fileFor(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// ExprString renders an expression as compact source text, used to compare
// expressions structurally (e.g. two mentions of "p.cfg").
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, fset, e)
	return sb.String()
}
