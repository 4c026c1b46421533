// Package asmabi is the golden package for the asmabi analyzer: assembly
// stubs with seeded defects. The assembly lives in a.s.
package asmabi // want `DATA for over<> extends past GLOBL size` `DATA for noglobl<> has no GLOBL declaration`

// good satisfies every contract; its differential test lives in a_test.go.
//
//go:noescape
func good(dst *[4]int64, n int64) int64

// missingNoescape lacks the //go:noescape directive.
func missingNoescape(p *byte) int64 // want `missing //go:noescape`

// noSplitMissing's TEXT directive omits the NOSPLIT flag.
//
//go:noescape
func noSplitMissing(x int64) // want `not marked NOSPLIT`

// untested is implemented and well-formed but no test references it.
//
//go:noescape
func untested(x int64) // want `no differential asm-vs-reference test`

// suppressedStub is missing //go:noescape and a test, both acknowledged by
// the same-line suppression.
func suppressedStub(p *byte) //lint:asmok reviewed: retired stub kept for ABI documentation

// staleOK carries a suppression on a fully contractual stub; the analyzer
// reports nothing here, so the suppression is merely unused.
//
//go:noescape
func staleOK(x int64) //lint:asmok stale: nothing to suppress on this line
