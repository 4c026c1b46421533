// Assembly for the asmabi golden package.
#include "textflag.h"

DATA tab<>+0x00(SB)/8, $0x0000000000000001
DATA tab<>+0x08(SB)/8, $0x0000000000000002
GLOBL tab<>(SB), RODATA|NOPTR, $16

// over<> writes 16 bytes of DATA into an 8-byte GLOBL.
DATA over<>+0x00(SB)/8, $0x0000000000000001
DATA over<>+0x08(SB)/8, $0x0000000000000002
GLOBL over<>(SB), RODATA|NOPTR, $8

// noglobl<> has DATA but no GLOBL declaring its size.
DATA noglobl<>+0x00(SB)/8, $0x0000000000000001

TEXT ·good(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), AX
	LEAQ tab<>(SB), SI
	MOVQ AX, ret+16(FP)
	RET

TEXT ·missingNoescape(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ $0, ret+8(FP)
	RET

TEXT ·noSplitMissing(SB), $0-8
	MOVQ x+0(FP), AX
	RET

TEXT ·untested(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX
	RET

TEXT ·staleOK(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX
	RET
