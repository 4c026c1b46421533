package asmabi

import "testing"

// TestStubsDifferential is the golden stand-in for the real differential
// tests: the analyzer requires each asm entry point to be exercised by name
// in some package test, which this file provides for every stub except
// untested (seeded defect) and suppressedStub (acknowledged).
func TestStubsDifferential(t *testing.T) {
	var dst [4]int64
	if got := good(&dst, 3); got < 0 {
		t.Fatal("impossible")
	}
	var b byte
	_ = missingNoescape(&b)
	noSplitMissing(1)
	staleOK(1)
}
