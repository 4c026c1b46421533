package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// declaredMsgTypes parses wire.go and returns the names of every constant
// declared with type MsgType, in declaration order, reserved slots as "_".
// Enumerating the source rather than hand-listing the constants means a
// newly added frame type is covered by TestMsgTypeStringExhaustive without
// anyone editing this test.
func declaredMsgTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "wire.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse wire.go: %v", err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		// A MsgType const block: the first spec names the type and the
		// rest inherit it via iota. Blocks with other types (MsgTypeCount,
		// MaxFrameSize) have no MsgType-typed spec and are skipped.
		typed := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); ok {
				typed = id.Name == "MsgType"
			} else if len(vs.Values) > 0 {
				typed = false // explicit value of another type ends inheritance
			}
			if !typed {
				continue
			}
			for _, name := range vs.Names {
				names = append(names, name.Name)
			}
		}
	}
	return names
}

// TestMsgTypeStringExhaustive checks the three-way contract between the
// declared MsgType constants, MsgTypeCount, and String(): every named
// constant (values 1..MsgTypeCount-1, contiguous with the reserved `_` slots
// of retired frames) has a distinct, non-"unknown" label, and the reserved
// slots and everything outside that range fall back to "unknown".
// msgexhaustive enforces the String arms statically; this test ground-truths
// the labels at runtime.
func TestMsgTypeStringExhaustive(t *testing.T) {
	names := declaredMsgTypes(t)
	if len(names) == 0 {
		t.Fatal("no MsgType constants found in wire.go")
	}
	if got, want := len(names), MsgTypeCount-1; got != want {
		t.Fatalf("declared %d MsgType constants, but MsgTypeCount-1 = %d; the iota block and the count drifted", got, want)
	}
	seen := map[string]MsgType{}
	for i := range names {
		v := MsgType(i + 1) // iota+1: declaration order is value order
		s := v.String()
		if names[i] == "_" {
			if s != "unknown" {
				t.Errorf("reserved MsgType %d has the String label %q, want \"unknown\"", v, s)
			}
			continue
		}
		if s == "unknown" {
			t.Errorf("%s (MsgType %d) has no String label; telemetry would report it as unknown", names[i], v)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("MsgType %d and %d share the String label %q", prev, v, s)
		}
		seen[s] = v
	}
	for _, v := range []MsgType{0, MsgType(MsgTypeCount), MsgType(MsgTypeCount) + 1, 255} {
		if got := v.String(); got != "unknown" {
			t.Errorf("MsgType(%d).String() = %q, want \"unknown\"", v, got)
		}
	}
}
