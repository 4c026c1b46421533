// Assembly for the asmabi golden package. Frame layouts assume a 64-bit
// host (the analyzer computes expectations from go/types for the build
// GOARCH, and CI runs on amd64).
#include "textflag.h"

DATA tab<>+0x00(SB)/8, $0x0000000000000001
DATA tab<>+0x08(SB)/8, $0x0000000000000002
GLOBL tab<>(SB), RODATA|NOPTR, $16

// over<> writes 16 bytes of DATA into an 8-byte GLOBL.
DATA over<>+0x00(SB)/8, $0x0000000000000001
DATA over<>+0x08(SB)/8, $0x0000000000000002
GLOBL over<>(SB), RODATA|NOPTR, $8

TEXT ·good(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), AX
	LEAQ tab<>(SB), SI
	MOVQ AX, ret+16(FP)
	RET

TEXT ·trailing32(SB), NOSPLIT, $0-12
	MOVQ p+0(FP), DI
	MOVL n+8(FP), AX
	RET

TEXT ·result32(SB), NOSPLIT, $0-12
	MOVL x+0(FP), AX
	MOVL AX, ret+8(FP)
	RET

TEXT ·trailing32Rounded(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVL n+8(FP), AX
	RET

TEXT ·missingNoescape(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ $0, ret+8(FP)
	RET

TEXT ·noSplitMissing(SB), $0-8
	MOVQ x+0(FP), AX
	RET

TEXT ·argSizeWrong(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX
	MOVQ AX, ret+8(FP)
	RET

TEXT ·badOffset(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), AX
	MOVQ b+4(FP), BX
	MOVQ c+16(FP), CX
	RET

TEXT ·refsMissing(SB), NOSPLIT, $0-0
	LEAQ missing<>(SB), SI
	RET

TEXT ·untested(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX
	RET

TEXT ·staleOK(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX
	RET

TEXT ·orphan(SB), NOSPLIT, $0-0
	RET
