//go:build !dcsdebug

package dcs

// debugAssertions is false in ordinary builds, compiling the assertion call
// sites out entirely; build with -tags dcsdebug to swap in the checking
// implementations (debug_on.go).
const debugAssertions = false

func (s *Sketch) assertSig(level, table, bucket int, op string) {}

func (s *Sketch) assertAllBuckets(op string) {}
