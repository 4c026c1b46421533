// Package metricname implements the sketchlint analyzer that polices the
// telemetry namespace. Every series registered on a telemetry.Registry —
// Histogram, CounterFunc, GaugeFunc — is the module's public
// observability contract: dashboards, alert rules and the CI scrape smoke all
// key on exact series strings. The analyzer enforces three invariants at the
// registration site:
//
//   - the family name carries the module namespace: it begins with
//     "dcsketch_" and is lower_snake_case (no uppercase, no colons, no
//     doubled or trailing underscores — stricter than the Prometheus grammar
//     the registry itself accepts, because mixed styles fragment the
//     namespace even when each name is individually legal);
//   - a {label="value",...} block, when present in a constant name, parses
//     and its label names are lower_snake_case;
//   - a fully-constant series string is registered exactly once module-wide
//     (the runtime registry panics on duplicates, but only on the code path
//     that actually runs; the analyzer proves it for paths tests never take).
//
// Names built by concatenation with a constant leftmost operand (the
// per-shard pattern "dcsketch_pipeline_queue_depth{shard=\"" + i + ...) get
// the prefix and snake-case checks on the constant part and are excluded
// from the uniqueness proof. A name with no constant prefix at all cannot be
// audited and is itself a finding. The escape hatch is "//lint:metricok
// <reason>" for e.g. a test fixture registering deliberately hostile names.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"dcsketch/internal/analysis"
)

// Analyzer is the metricname analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "metricname",
	Doc:       "telemetry series are dcsketch_-prefixed snake_case and registered exactly once module-wide",
	Directive: "metricok",
	Run:       run,
}

// registerMethods is the method set of telemetry.Registry whose first
// argument is a series name.
var registerMethods = map[string]bool{
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// site is one registration of a fully-constant series name.
type site struct {
	name string
	pos  token.Pos
	fset *token.FileSet
	cur  bool // the site lies in the package under analysis
}

func run(pass *analysis.Pass) error {
	// Pass 1: name-shape checks on the current package only.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isRegistration(pass.TypesInfo, call) {
				return true
			}
			checkNameArg(pass, call)
			return true
		})
	}

	// Pass 2: module-wide uniqueness of fully-constant names. Every package
	// sees the same global site list; to keep each duplicate reported once,
	// a site is only diagnosed when it lies in the current package and an
	// earlier site (any package) registered the same string.
	var sites []site
	for _, pkg := range pass.ModulePackages() {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isRegistration(pkg.TypesInfo, call) {
					return true
				}
				if name, ok := constantName(pkg.TypesInfo, call.Args[0]); ok {
					sites = append(sites, site{
						name: name,
						pos:  call.Args[0].Pos(),
						fset: pkg.Fset,
						cur:  pkg.Types == pass.Pkg,
					})
				}
				return true
			})
		}
	}
	first := map[string]site{}
	for _, s := range sites {
		prev, seen := first[s.name]
		if !seen {
			first[s.name] = s
			continue
		}
		if s.cur {
			at := prev.fset.Position(prev.pos)
			pass.Reportf(s.pos, "series %q already registered at %s:%d; telemetry series must be registered exactly once",
				s.name, filepath.Base(at.Filename), at.Line)
		}
	}
	return nil
}

// isRegistration reports whether call is a series-registering method call on
// a telemetry.Registry (matched by package name/path and type name, so the
// golden-test scaffolding package qualifies like the real one).
func isRegistration(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) < 1 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !registerMethods[sel.Sel.Name] {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Name() == "telemetry" || strings.HasSuffix(pkg.Path(), "/telemetry"))
}

// checkNameArg applies the shape checks to the series-name argument.
func checkNameArg(pass *analysis.Pass, call *ast.CallExpr) {
	arg := call.Args[0]
	if name, ok := constantName(pass.TypesInfo, arg); ok {
		checkFullName(pass, arg.Pos(), name)
		return
	}
	if prefix, ok := constantPrefix(pass.TypesInfo, arg); ok {
		checkPrefixOnly(pass, arg.Pos(), prefix)
		return
	}
	pass.Reportf(arg.Pos(), "series name is not statically checkable: use a constant, or concatenation with a constant leftmost operand")
}

// constantName extracts a whole-expression string constant.
func constantName(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constantPrefix walks the leftmost operand of a '+' chain to a string
// constant: the auditable head of a dynamically assembled series name.
func constantPrefix(info *types.Info, e ast.Expr) (string, bool) {
	for {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			return "", false
		}
		if s, ok := constantName(info, bin.X); ok {
			return s, true
		}
		e = bin.X
	}
}

// checkFullName validates a complete series string: family shape plus the
// optional label block.
func checkFullName(pass *analysis.Pass, pos token.Pos, name string) {
	family := name
	if brace := strings.IndexByte(name, '{'); brace >= 0 {
		family = name[:brace]
		block := name[brace:]
		if !strings.HasSuffix(block, "}") {
			pass.Reportf(pos, "series %q: unterminated label block", name)
			return
		}
		checkLabelBlock(pass, pos, name, block[1:len(block)-1])
	}
	checkFamily(pass, pos, name, family, true)
}

// checkPrefixOnly validates the constant head of a concatenated name. If the
// head already contains '{', the family is complete and fully checkable;
// otherwise only the prefix and the characters seen so far can be judged.
func checkPrefixOnly(pass *analysis.Pass, pos token.Pos, prefix string) {
	if brace := strings.IndexByte(prefix, '{'); brace >= 0 {
		checkFamily(pass, pos, prefix, prefix[:brace], true)
		return
	}
	checkFamily(pass, pos, prefix, prefix, false)
}

// checkFamily enforces the namespace contract on a family name (or, with
// complete=false, on its constant head): dcsketch_ prefix and
// lower_snake_case.
func checkFamily(pass *analysis.Pass, pos token.Pos, name, family string, complete bool) {
	if !strings.HasPrefix(family, "dcsketch_") {
		pass.Reportf(pos, "series %q: family must begin with the module namespace \"dcsketch_\"", name)
		return
	}
	for i := 0; i < len(family); i++ {
		c := family[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			pass.Reportf(pos, "series %q: family is not lower_snake_case (offending byte %q)", name, c)
			return
		}
	}
	if strings.Contains(family, "__") {
		pass.Reportf(pos, "series %q: family contains a doubled underscore", name)
		return
	}
	if complete && strings.HasSuffix(family, "_") {
		pass.Reportf(pos, "series %q: family ends with an underscore", name)
	}
}

// checkLabelBlock validates a complete {…} interior: name="value" pairs with
// lower_snake_case label names. The value scan mirrors the registry's
// quote-aware parse so the analyzer rejects exactly what registration would
// panic on, plus the style constraint on label names.
func checkLabelBlock(pass *analysis.Pass, pos token.Pos, name, labels string) {
	if labels == "" {
		pass.Reportf(pos, "series %q: empty label block", name)
		return
	}
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			pass.Reportf(pos, "series %q: label pair %q missing '='", name, labels[i:])
			return
		}
		label := labels[i : i+eq]
		if !snakeLabel(label) {
			pass.Reportf(pos, "series %q: label name %q is not lower_snake_case", name, label)
			return
		}
		i += eq + 1
		n, ok := scanQuoted(labels[i:])
		if !ok {
			pass.Reportf(pos, "series %q: label %s has a malformed quoted value", name, label)
			return
		}
		i += n
		if i == len(labels) {
			return
		}
		if labels[i] != ',' {
			pass.Reportf(pos, "series %q: expected ',' after label %s", name, label)
			return
		}
		i++ // a trailing comma terminates the block legally
	}
}

// snakeLabel reports whether s is a lower_snake_case label name.
func snakeLabel(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// scanQuoted parses one quoted label value at the start of s and returns its
// byte length including both quotes.
func scanQuoted(s string) (int, bool) {
	if len(s) == 0 || s[0] != '"' {
		return 0, false
	}
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return i + 1, true
		case '\n':
			return 0, false
		case '\\':
			if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != '"' && s[i+1] != 'n') {
				return 0, false
			}
			i++
		}
		i++
	}
	return 0, false
}
