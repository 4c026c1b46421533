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
	var lanes [4]int32
	trailing32(&lanes, 1)
	_ = result32(1)
	trailing32Rounded(&lanes, 1)
	var b byte
	_ = missingNoescape(&b)
	noSplitMissing(1)
	_ = argSizeWrong(1)
	badOffset(1, 2)
	refsMissing()
	missingImpl(1)
	staleOK(1)
}
