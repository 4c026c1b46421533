// Package allocfree implements the sketchlint analyzer proving the hot-path
// allocation contract: a function whose doc comment carries "//lint:allocfree"
// (the dcs/tdcs update kernels, UpdateBatch, the iheap candidate heap, the
// pipeline Batcher staging path) must contain no allocation-inducing
// construct — not just locally, but over its full intra-module call graph.
//
// The Table-2 costs the repository reproduces (sub-200ns updates, 0-1
// allocs/op queries) hold only while these paths stay off the allocator;
// line-rate distinct-counting monitors live or die on that constant factor.
// Before this analyzer the contract existed only as comments and benchmark
// observations; now it is machine-checked like the seed/lock/wire/delta
// invariants.
//
// Constructs reported inside an annotated function (and, transitively,
// inside every module-internal function it calls):
//
//   - append (may grow and reallocate), make, new
//   - slice and map composite literals, and address-of composite literals
//   - map writes (bucket growth) via assignment or ++/--
//   - string concatenation and allocating string conversions
//   - conversions to interface types and call arguments boxed into
//     interface parameters (non-pointer concrete values)
//   - closures (function literals capture their environment) and go
//     statements
//   - calls that cannot be proven allocation-free: dynamic calls through
//     function values or interfaces, and calls into packages outside the
//     module (standard library) other than a small allowlist of pure
//     arithmetic/atomic packages
//
// A module-internal callee is acceptable when it is itself annotated
// "//lint:allocfree" or when a transitive scan of its body (memoized,
// cycle-tolerant) finds no unsuppressed construct. Violations in a callee
// are reported at the annotated caller's call site, naming the callee and
// the offending construct.
//
// Heap escapes the AST cannot see (a &local outliving its frame, an
// escaping value struct) are the province of cmd/perfcheck, which
// ground-truths the same annotations against the compiler's own escape
// analysis (go build -gcflags='-m -m'); the two gates share the annotation
// vocabulary and run side by side in ./ci.sh check.
//
// Escape hatch: "//lint:allocok <reason>" on the construct's line, for
// amortized allocations that are part of the contract (pool refills on a
// cold pool, singleton-set growth amortized across the stream, scratch
// buffers growing toward a high-water mark).
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"dcsketch/internal/analysis"
)

// Analyzer is the allocfree analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "allocfree",
	Doc:       "prove //lint:allocfree functions free of allocation-inducing constructs over their intra-module call graph",
	Directive: "allocok",
	Run:       run,
}

// allowedPkgs are packages outside the module whose functions are known not
// to allocate: pure arithmetic and the atomic operations the hot paths use
// for counters.
var allowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allowedBuiltins never allocate. panic is included deliberately: it boxes
// its argument, but it terminates the fast path and a kernel that panics has
// already lost the performance argument.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "clear": true, "delete": true,
	"min": true, "max": true, "panic": true, "real": true, "imag": true,
}

func run(pass *analysis.Pass) error {
	v := &verifier{pass: pass, verdicts: map[types.Object]*verdict{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, annotated := analysis.DocDirective(fn.Doc, "allocfree"); !annotated {
				continue
			}
			ctx := &fnCtx{fset: pass.Fset, info: pass.TypesInfo, file: file}
			v.scan(ctx, fn.Body, func(pos token.Pos, msg string) bool {
				pass.Reportf(pos, "%s in //lint:allocfree function %s", msg, fn.Name.Name)
				return true // keep scanning: every violation is individually suppressible
			})
		}
	}
	return nil
}

// verdict memoizes the transitive scan of one non-annotated module function.
type verdict struct {
	done  bool // scan finished (false while on the recursion stack)
	clean bool // valid once done
	pos   token.Pos
	msg   string
}

// verifier walks function bodies for allocation-inducing constructs,
// following module-internal calls.
type verifier struct {
	pass     *analysis.Pass
	verdicts map[types.Object]*verdict
}

// fnCtx carries the package context a body is scanned under; transitive
// callees in other packages bring their own type info and file (for
// suppression lookup).
type fnCtx struct {
	fset *token.FileSet
	info *types.Info
	file *ast.File
}

// scan walks body reporting each allocation-inducing construct through sink;
// sink returns false to stop early (used by the transitive first-violation
// probe). Suppression ("//lint:allocok") is the sink's concern: the top-level
// scan forwards everything through Pass.Reportf so suppressed constructs stay
// in the -json inventory, while the transitive probe treats suppressed lines
// as clean.
func (v *verifier) scan(ctx *fnCtx, body ast.Node, sink func(pos token.Pos, msg string) bool) {
	stopped := false
	report := func(pos token.Pos, msg string) bool {
		if stopped {
			return false
		}
		if !sink(pos, msg) {
			stopped = true
			return false
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if stopped {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			report(n.Pos(), "closure literal captures its environment and allocates")
			return false // the closure body runs later, off the hot path
		case *ast.CompositeLit:
			if tv, ok := ctx.info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					report(n.Pos(), "address-of composite literal allocates")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				v.checkMapWrite(ctx, lhs, report)
			}
			if n.Tok == token.ADD_ASSIGN && v.isString(ctx, n.Lhs[0]) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.IncDecStmt:
			v.checkMapWrite(ctx, n.X, report)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && v.isString(ctx, n.X) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			v.checkCall(ctx, n, report)
		}
		return !stopped
	})
}

// checkMapWrite reports lhs when it writes through a map index (insertion can
// grow the bucket array).
func (v *verifier) checkMapWrite(ctx *fnCtx, lhs ast.Expr, report func(token.Pos, string) bool) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, tok := ctx.info.Types[idx.X]; tok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			report(lhs.Pos(), "map write may allocate (bucket growth)")
		}
	}
}

func (v *verifier) isString(ctx *fnCtx, e ast.Expr) bool {
	tv, ok := ctx.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && basic.Info()&types.IsString != 0
}

// checkCall classifies one call: conversions, builtins, and function calls,
// following module-internal callees transitively.
func (v *verifier) checkCall(ctx *fnCtx, call *ast.CallExpr, report func(token.Pos, string) bool) {
	// Type conversions.
	if tv, ok := ctx.info.Types[call.Fun]; ok && tv.IsType() {
		v.checkConversion(ctx, call, tv.Type, report)
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := ctx.info.Uses[id]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch {
				case allowedBuiltins[id.Name]:
				case id.Name == "append":
					report(call.Pos(), "append may grow and allocate")
				case id.Name == "make":
					report(call.Pos(), "make allocates")
				case id.Name == "new":
					report(call.Pos(), "new allocates")
				default:
					report(call.Pos(), "builtin "+id.Name+" may allocate")
				}
				return
			}
		}
	}

	fn := callee(ctx.info, call)
	if fn == nil {
		report(call.Pos(), "dynamic call cannot be proven allocation-free")
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		report(call.Pos(), "interface method call "+fn.Name()+" cannot be proven allocation-free")
		return
	}
	if sig != nil {
		v.checkBoxedArgs(ctx, call, sig, report)
	}

	pkg := fn.Pkg()
	if pkg != nil && allowedPkgs[pkg.Path()] {
		return
	}
	info := v.pass.Module.FuncDecl(fn)
	if info == nil {
		report(call.Pos(), "call into "+qualName(fn)+" cannot be proven allocation-free (outside the module and not allowlisted)")
		return
	}
	if _, annotated := analysis.DocDirective(info.Decl.Doc, "allocfree"); annotated {
		return
	}
	if vd := v.verify(fn, info); !vd.clean {
		report(call.Pos(), "calls "+qualName(fn)+", which is not allocation-free: "+
			vd.msg+" at "+v.pass.Fset.Position(vd.pos).String()+
			" (annotate the callee //lint:allocfree or fix it)")
	}
}

// checkConversion reports conversions that allocate: into interfaces
// (boxing), into strings from byte/rune slices or integers, and from strings
// into byte/rune slices.
func (v *verifier) checkConversion(ctx *fnCtx, call *ast.CallExpr, target types.Type, report func(token.Pos, string) bool) {
	if len(call.Args) != 1 {
		return
	}
	switch t := target.Underlying().(type) {
	case *types.Interface:
		if !v.pointerLike(ctx, call.Args[0]) {
			report(call.Pos(), "conversion to interface type boxes the operand")
		}
	case *types.Basic:
		if t.Info()&types.IsString != 0 && !v.isString(ctx, call.Args[0]) {
			report(call.Pos(), "string conversion allocates")
		}
	case *types.Slice:
		if v.isString(ctx, call.Args[0]) {
			report(call.Pos(), "conversion from string allocates")
		}
	}
}

// checkBoxedArgs reports non-pointer concrete arguments passed to interface
// parameters (implicit boxing), and non-spread variadic calls (the argument
// slice is allocated at the call site). Pointers, interfaces and nil store
// into the interface word without allocating.
func (v *verifier) checkBoxedArgs(ctx *fnCtx, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string) bool) {
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call allocates its argument slice")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread call: the slice passes through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		if !v.pointerLike(ctx, arg) {
			report(arg.Pos(), "argument boxes a non-pointer value into an interface parameter")
		}
	}
}

// pointerLike reports whether e stores into an interface word without
// allocation: pointers, interfaces, channels, maps, functions, unsafe
// pointers, and untyped nil.
func (v *verifier) pointerLike(ctx *fnCtx, e ast.Expr) bool {
	tv, ok := ctx.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Kind() == types.UntypedNil || t.Kind() == types.UnsafePointer
	}
	return false
}

// verify runs the transitive scan of a non-annotated module-internal
// function, memoized. Recursion cycles resolve optimistically (a cycle whose
// members are otherwise clean is clean).
func (v *verifier) verify(fn *types.Func, info *analysis.FuncInfo) *verdict {
	if vd, seen := v.verdicts[fn]; seen {
		if !vd.done {
			return &verdict{done: true, clean: true} // on the recursion stack
		}
		return vd
	}
	vd := &verdict{clean: true}
	v.verdicts[fn] = vd
	if info.Decl.Body != nil {
		ctx := &fnCtx{fset: info.Pkg.Fset, info: info.Pkg.TypesInfo, file: info.File}
		v.scan(ctx, info.Decl.Body, func(pos token.Pos, msg string) bool {
			if analysis.FileLineDirective(ctx.fset, ctx.file, pos, "allocok") {
				return true // suppressed in the callee: acknowledged, keep scanning
			}
			vd.clean = false
			vd.pos = pos
			vd.msg = msg
			return false // first violation decides the verdict
		})
	} else {
		// Body elsewhere (assembly): unprovable.
		vd.clean = false
		vd.pos = info.Decl.Pos()
		vd.msg = "no Go body to verify"
	}
	vd.done = true
	return vd
}

// callee resolves the *types.Func a call invokes, or nil for dynamic calls.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// qualName renders a function as pkgpath.Name or (recv).Name for messages.
func qualName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), nil) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}
