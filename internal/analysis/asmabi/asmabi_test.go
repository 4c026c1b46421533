package asmabi

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFlagsHaveNosplit(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"NOSPLIT", true},
		{"NOSPLIT|NOFRAME", true},
		{"WRAPPER|NOSPLIT", true},
		{"4", true},
		{"7", true},
		{"NOFRAME", false},
		{"RODATA", false},
		{"0", false},
	}
	for _, c := range cases {
		if got := flagsHaveNosplit(c.in); got != c.want {
			t.Errorf("flagsHaveNosplit(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseAsmFiles(t *testing.T) {
	dir := t.TempDir()
	src := `#include "textflag.h"
DATA tab<>+0x00(SB)/8, $1
DATA tab<>+0x08(SB)/8, $2
GLOBL tab<>(SB), RODATA|NOPTR, $16

// func f(x int64) int64
TEXT ·f(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), AX
	LEAQ tab<>(SB), SI
	MOVQ AX, ret+8(FP)
	RET

TEXT ·bare(SB), $8-0
	RET

// TEXT ·commented(SB), NOSPLIT, $0-0
`
	if err := os.WriteFile(filepath.Join(dir, "x.s"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := parseAsmFiles(dir, []string{"x.s"})
	if err != nil {
		t.Fatal(err)
	}
	f := idx.texts["f"]
	if f == nil {
		t.Fatal("TEXT ·f not indexed")
	}
	if !f.nosplit || f.line != 7 {
		t.Errorf("f = %+v, want nosplit, line 7", f)
	}
	bare := idx.texts["bare"]
	if bare == nil || bare.nosplit {
		t.Errorf("bare = %+v, want no NOSPLIT", bare)
	}
	if len(idx.texts) != 2 {
		t.Errorf("indexed %d TEXT symbols, want f and bare (comments stripped)", len(idx.texts))
	}
	tab := idx.statics["tab"]
	if tab == nil || tab.globlSize != 16 || tab.dataEnd != 16 {
		t.Errorf("tab = %+v, want globlSize 16, dataEnd 16", tab)
	}
}
