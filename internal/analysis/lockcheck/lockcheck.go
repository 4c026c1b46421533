// Package lockcheck implements the sketchlint analyzer enforcing
// "// guarded by <mu>" field annotations: a struct field whose declaration
// comment names a sibling mutex field may only be read or written on local
// paths where that mutex is held. The phrase annotates only where it begins
// a comment line or follows a sentence end (". guarded by mu").
//
// The sketch data structures are documented single-writer ("wrap it in a
// mutex or use one sketch per goroutine and Merge", internal/dcs), and the
// daemon layers (internal/server, internal/monitor) uphold that with
// mutex-guarded state. lockcheck keeps those contracts true as the code
// grows: it tracks, in source order within each function body, calls to
// <base>.<mu>.Lock/RLock/Unlock/RUnlock (including deferred unlocks, which
// hold to function exit) and reports guarded-field accesses performed while
// the named mutex is not held.
//
// Two refinements:
//
//   - sync.RWMutex read locks permit only reads; a write access (assignment,
//     compound assignment, ++/--, or address-taking) under RLock alone is
//     still reported.
//   - a function whose doc comment carries "//lint:locked <mu>" is assumed
//     to be called with the receiver's <mu> held (for internal helpers whose
//     callers lock).
//
// The analysis is deliberately flow-insensitive across branches (a lock
// acquired inside an if-arm counts for subsequent statements); it trades
// soundness for near-zero false positives, the right balance for an
// invariant checker that gates CI.
package lockcheck

import (
	"go/ast"
	"go/types"
	"regexp"

	"dcsketch/internal/analysis"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcheck",
	Doc:       "report accesses to '// guarded by <mu>' fields without the named mutex held on the local path",
	Directive: "lockok",
	Run:       run,
}

// guardedRe matches the annotation where it begins a comment line or
// follows a sentence end, so a comment that says a field is "not guarded by
// mu" is not an annotation.
var guardedRe = regexp.MustCompile(`(?m)(?:^|\. )guarded by (\w+)`)

func run(pass *analysis.Pass) error {
	guards := guardedFields(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, guards)
		}
	}
	return nil
}

// guardedFields maps each annotated struct field object to the name of its
// guarding sibling mutex field.
func guardedFields(pass *analysis.Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's "guarded by <mu>"
// doc or trailing comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockState tracks, per "<base>.<mu>" key, exclusive and shared hold depth.
type lockState struct {
	excl   map[string]int
	shared map[string]int
}

func (ls *lockState) held(key string) bool      { return ls.excl[key] > 0 || ls.shared[key] > 0 }
func (ls *lockState) heldWrite(key string) bool { return ls.excl[key] > 0 }

// checkFunc walks one function body in source order, maintaining lock state
// and reporting unguarded accesses.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, guards map[types.Object]string) {
	ls := &lockState{excl: map[string]int{}, shared: map[string]int{}}

	// "//lint:locked mu" pre-holds the receiver's mutex.
	if mu, ok := analysis.DocDirectiveArg(fn.Doc, "locked"); ok && fn.Recv != nil && len(fn.Recv.List) > 0 && len(fn.Recv.List[0].Names) > 0 {
		ls.excl[fn.Recv.List[0].Names[0].Name+"."+mu]++
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock releases at function exit, not here:
			// record a deferred Lock (rare but possible) and ignore
			// deferred Unlocks so the mutex stays held for the rest of
			// the body.
			if key, op, ok := lockCall(pass, n.Call); ok {
				switch op {
				case "Lock":
					ls.excl[key]++
				case "RLock":
					ls.shared[key]++
				}
			}
			return false // don't double-count the inner call expression
		case *ast.CallExpr:
			if key, op, ok := lockCall(pass, n); ok {
				switch op {
				case "Lock":
					ls.excl[key]++
				case "Unlock":
					if ls.excl[key] > 0 {
						ls.excl[key]--
					}
				case "RLock":
					ls.shared[key]++
				case "RUnlock":
					if ls.shared[key] > 0 {
						ls.shared[key]--
					}
				}
				return false
			}
		case *ast.SelectorExpr:
			checkAccess(pass, fn, n, guards, ls)
		}
		return true
	})
}

// checkAccess reports sel if it accesses a guarded field while its mutex is
// not held (or only read-held for a write access).
func checkAccess(pass *analysis.Pass, fn *ast.FuncDecl, sel *ast.SelectorExpr, guards map[types.Object]string, ls *lockState) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return
	}
	mu, guarded := guards[obj]
	if !guarded {
		return
	}
	base := analysis.ExprString(pass.Fset, sel.X)
	key := base + "." + mu
	write := isWriteContext(fn.Body, sel)
	if write && !ls.heldWrite(key) {
		if ls.held(key) {
			pass.Reportf(sel.Pos(), "write to %s.%s guarded by %s while holding only the read lock", base, sel.Sel.Name, key)
			return
		}
		pass.Reportf(sel.Pos(), "write to %s.%s without holding %s (field is '// guarded by %s')", base, sel.Sel.Name, key, mu)
		return
	}
	if !write && !ls.held(key) {
		pass.Reportf(sel.Pos(), "read of %s.%s without holding %s (field is '// guarded by %s')", base, sel.Sel.Name, key, mu)
	}
}

// lockCall recognizes <base>.<mu>.Lock/Unlock/RLock/RUnlock() and returns
// the "<base>.<mu>" key and operation name.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	// The receiver must be a sync (RW)Mutex-typed expression.
	t := pass.TypesInfo.Types[sel.X].Type
	if t == nil || !isMutexType(t) {
		return "", "", false
	}
	return analysis.ExprString(pass.Fset, sel.X), op, true
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a pointer to
// one.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isWriteContext reports whether sel appears as a write target: on the left
// of an assignment, as an IncDec operand, or with its address taken.
func isWriteContext(body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	write := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if containsExpr(lhs, sel) {
					write = true
				}
			}
		case *ast.IncDecStmt:
			if containsExpr(n.X, sel) {
				write = true
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" && containsExpr(n.X, sel) {
				write = true
			}
		}
		return !write
	})
	return write
}

// containsExpr reports whether needle is the expression root (possibly
// parenthesized) of hay.
func containsExpr(hay ast.Expr, needle *ast.SelectorExpr) bool {
	found := false
	ast.Inspect(hay, func(n ast.Node) bool {
		if n == ast.Node(needle) {
			found = true
		}
		return !found
	})
	return found
}
