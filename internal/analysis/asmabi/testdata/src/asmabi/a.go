// Package asmabi is the golden package for the asmabi analyzer: assembly
// stubs with seeded ABI defects. The assembly lives in a.s; fallback.go
// carries the never-satisfied fallbackonly tag so the parity checks see an
// ignored complement on every host, and gcfile.go carries the
// always-satisfied gc tag so it counts as a build-constrained file.
package asmabi // want `assembly symbol ·orphan has no Go stub` `DATA for over<> extends past GLOBL size` `fallback-only function OnlyFallback`

// good satisfies every contract; its differential test lives in a_test.go.
//
//go:noescape
func good(dst *[4]int64, n int64) int64

// missingNoescape lacks the //go:noescape directive.
func missingNoescape(p *byte) int64 // want `missing //go:noescape`

// trailing32 ends its parameters with a sub-word int32 and has no results:
// its frame is the 12 bytes the parameters take, not rounded up, as go vet
// computes it.
//
//go:noescape
func trailing32(p *[4]int32, n int32)

// result32's int32 result starts at the next pointer-aligned offset, 8, and
// the frame ends with it at 12.
//
//go:noescape
func result32(x int32) int32

// trailing32Rounded declares the frame rounded up to the pointer size,
// which go vet rejects.
//
//go:noescape
func trailing32Rounded(p *[4]int32, n int32) // want `declares argument size 16, ABI0 layout of the Go signature is 12 bytes`

// noSplitMissing's TEXT directive omits the NOSPLIT flag.
//
//go:noescape
func noSplitMissing(x int64) // want `not marked NOSPLIT`

// argSizeWrong's TEXT declares $0-8 against a 16-byte ABI0 frame.
//
//go:noescape
func argSizeWrong(x int64) int64 // want `declares argument size 8, ABI0 layout of the Go signature is 16 bytes`

// badOffset's assembly reads b at the wrong offset and references a
// parameter that does not exist.
//
//go:noescape
func badOffset(a, b int64) // want `b\+4\(FP\): ABI0 offset of b is 8` `no parameter or result named c`

// refsMissing references a static data symbol with no GLOBL declaration.
//
//go:noescape
func refsMissing() // want `undeclared static symbol missing<>`

// missingImpl has no TEXT symbol in the package's assembly.
//
//go:noescape
func missingImpl(x int64) // want `no assembly implementation`

// untested is implemented and well-formed but no test references it.
//
//go:noescape
func untested(x int64) // want `no differential asm-vs-reference test`

// suppressedStub is missing //go:noescape, an implementation and a test,
// all acknowledged by the same-line suppression.
func suppressedStub(p *byte) //lint:asmok reviewed: retired stub kept for ABI documentation

// staleOK carries a suppression on a fully contractual stub; the analyzer
// reports nothing here, so the suppression is merely unused.
//
//go:noescape
func staleOK(x int64) //lint:asmok stale: nothing to suppress on this line
