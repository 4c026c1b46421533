// Package atomicfield implements the sketchlint analyzer enforcing atomics
// discipline: a word shared between goroutines without a lock is declared
// as one of sync/atomic's typed atomics (atomic.Uint64, atomic.Int64,
// atomic.Pointer, ...) or a telemetry instrument built on them, and is never
// passed to sync/atomic's package functions (atomic.AddInt64(&x, 1) and
// friends).
//
// One rule: any use of a sync/atomic package function is a finding. The
// typed atomics make the bug classes of the function forms impossible to
// write: the compiler rejects plain access to an atomic.Uint64, go vet's
// copylocks check rejects copying one, and Go aligns atomic.Int64 and
// atomic.Uint64 to 8 bytes on every platform. A plain word handed to the
// function forms has none of these guarantees: one plain read beside an
// atomic.AddInt64 is a data race, and on 32-bit platforms a word at a
// 4-byte offset tears or faults.
//
// //lint:atomicok on the line suppresses a reviewed finding.
package atomicfield

import (
	"go/ast"
	"go/types"

	"dcsketch/internal/analysis"
)

// Analyzer is the atomicfield analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicfield",
	Doc:       "shared words use sync/atomic's typed atomics, never its package functions",
	Directive: "atomicok",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			// Methods of the typed atomics are Funcs too; only the
			// receiverless package functions are reported.
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "sync/atomic.%s operates on a plain word; declare the word as a typed atomic (atomic.Int64, atomic.Uint64, ...) instead", fn.Name())
			}
			return true
		})
	}
	return nil
}
