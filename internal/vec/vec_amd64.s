//go:build amd64

#include "textflag.h"

// bitsel<> holds the 32 single-bit selector masks 1<<0 .. 1<<31, one dword
// per lane, so VPAND+VPCMPEQD against a broadcast key dword turns "is bit j
// set" into an all-ones/all-zeros lane mask eight lanes at a time. Lanes
// 0-31 test the key's low dword and lanes 32-63 its high dword against the
// same table.
DATA bitsel<>+0x000(SB)/4, $0x00000001
DATA bitsel<>+0x004(SB)/4, $0x00000002
DATA bitsel<>+0x008(SB)/4, $0x00000004
DATA bitsel<>+0x00c(SB)/4, $0x00000008
DATA bitsel<>+0x010(SB)/4, $0x00000010
DATA bitsel<>+0x014(SB)/4, $0x00000020
DATA bitsel<>+0x018(SB)/4, $0x00000040
DATA bitsel<>+0x01c(SB)/4, $0x00000080
DATA bitsel<>+0x020(SB)/4, $0x00000100
DATA bitsel<>+0x024(SB)/4, $0x00000200
DATA bitsel<>+0x028(SB)/4, $0x00000400
DATA bitsel<>+0x02c(SB)/4, $0x00000800
DATA bitsel<>+0x030(SB)/4, $0x00001000
DATA bitsel<>+0x034(SB)/4, $0x00002000
DATA bitsel<>+0x038(SB)/4, $0x00004000
DATA bitsel<>+0x03c(SB)/4, $0x00008000
DATA bitsel<>+0x040(SB)/4, $0x00010000
DATA bitsel<>+0x044(SB)/4, $0x00020000
DATA bitsel<>+0x048(SB)/4, $0x00040000
DATA bitsel<>+0x04c(SB)/4, $0x00080000
DATA bitsel<>+0x050(SB)/4, $0x00100000
DATA bitsel<>+0x054(SB)/4, $0x00200000
DATA bitsel<>+0x058(SB)/4, $0x00400000
DATA bitsel<>+0x05c(SB)/4, $0x00800000
DATA bitsel<>+0x060(SB)/4, $0x01000000
DATA bitsel<>+0x064(SB)/4, $0x02000000
DATA bitsel<>+0x068(SB)/4, $0x04000000
DATA bitsel<>+0x06c(SB)/4, $0x08000000
DATA bitsel<>+0x070(SB)/4, $0x10000000
DATA bitsel<>+0x074(SB)/4, $0x20000000
DATA bitsel<>+0x078(SB)/4, $0x40000000
DATA bitsel<>+0x07c(SB)/4, $0x80000000
GLOBL bitsel<>(SB), RODATA|NOPTR, $128

// func buildAddendsAVX2(add *[64]int32, key uint64, delta int32)
//
// add[j] = delta & -((key>>j)&1), eight lanes per instruction:
//   Y2, Y4, Y6, Y8 = bitsel[0..31]        (the selector bits, loaded once)
//   Y3 = (dword & Y2) == Y2 ? ~0 : 0      per lane
//   Y3 &= delta
// with dword the key's low half for lanes 0-31 and its high half for lanes
// 32-63. The scalar arguments reach the vector unit through VMOVD/VMOVQ,
// which are VEX-encoded, so no legacy-SSE instruction mixes in. They are not
// broadcast from the argument slots: go vet types a VPBROADCASTD memory
// operand as 8 bytes, which rejects a load of the int32 delta or of the key's
// high dword.
TEXT ·buildAddendsAVX2(SB), NOSPLIT, $0-20
	MOVQ add+0(FP), DI
	MOVQ key+8(FP), AX
	MOVL delta+16(FP), CX
	VMOVQ AX, X0
	SHRQ $32, AX
	VMOVD AX, X10
	VMOVD CX, X1
	VPBROADCASTD X0, Y0   // key bits 0-31 in all lanes
	VPBROADCASTD X10, Y10 // key bits 32-63 in all lanes
	VPBROADCASTD X1, Y1   // delta in all lanes
	LEAQ bitsel<>(SB), SI
	VMOVDQU (SI), Y2
	VMOVDQU 32(SI), Y4
	VMOVDQU 64(SI), Y6
	VMOVDQU 96(SI), Y8
	VPAND Y0, Y2, Y3
	VPAND Y0, Y4, Y5
	VPAND Y0, Y6, Y7
	VPAND Y0, Y8, Y9
	VPCMPEQD Y2, Y3, Y3
	VPCMPEQD Y4, Y5, Y5
	VPCMPEQD Y6, Y7, Y7
	VPCMPEQD Y8, Y9, Y9
	VPAND Y1, Y3, Y3
	VPAND Y1, Y5, Y5
	VPAND Y1, Y7, Y7
	VPAND Y1, Y9, Y9
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	VMOVDQU Y7, 64(DI)
	VMOVDQU Y9, 96(DI)
	VPAND Y10, Y2, Y3
	VPAND Y10, Y4, Y5
	VPAND Y10, Y6, Y7
	VPAND Y10, Y8, Y9
	VPCMPEQD Y2, Y3, Y3
	VPCMPEQD Y4, Y5, Y5
	VPCMPEQD Y6, Y7, Y7
	VPCMPEQD Y8, Y9, Y9
	VPAND Y1, Y3, Y3
	VPAND Y1, Y5, Y5
	VPAND Y1, Y7, Y7
	VPAND Y1, Y9, Y9
	VMOVDQU Y3, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y7, 192(DI)
	VMOVDQU Y9, 224(DI)
	VZEROUPPER
	RET

// func addLanes32AVX2(dst, add *[64]int32)
//
// dst[j] += add[j] for j in [0,64), wrapping modulo 2^32: eight 8-lane
// VPADDD groups, fully unrolled.
TEXT ·addLanes32AVX2(SB), NOSPLIT, $0-16
	MOVQ dst+0(FP), DI
	MOVQ add+8(FP), SI
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	VPADDD (SI), Y0, Y0
	VPADDD 32(SI), Y1, Y1
	VPADDD 64(SI), Y2, Y2
	VPADDD 96(SI), Y3, Y3
	VPADDD 128(SI), Y4, Y4
	VPADDD 160(SI), Y5, Y5
	VPADDD 192(SI), Y6, Y6
	VPADDD 224(SI), Y7, Y7
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// func prefetchSig(bits *int32, words *int64)
//
// PREFETCHT0 at bits, bits+64, bits+128 and bits+192, the four lines of a
// 256-byte lane block, and at words, the line holding the bucket's total and
// fingerprint. A lane slab is over 32 KB, so the allocator places it on a
// page boundary and every lane block is exactly four lines. A prefetch
// never faults, so lines past the end of a slab are safe.
TEXT ·prefetchSig(SB), NOSPLIT, $0-16
	MOVQ bits+0(FP), AX
	MOVQ words+8(FP), BX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 (BX)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ DX, AX
	MOVQ AX, ret+0(FP)
	RET
