//go:build amd64

#include "textflag.h"

// bitsel<> holds the 64 single-bit selector masks 1<<0 .. 1<<63, one qword
// per lane, so VPAND+VPCMPEQQ against a broadcast key turns "is bit j set"
// into an all-ones/all-zeros lane mask four lanes at a time.
DATA bitsel<>+0x000(SB)/8, $0x0000000000000001
DATA bitsel<>+0x008(SB)/8, $0x0000000000000002
DATA bitsel<>+0x010(SB)/8, $0x0000000000000004
DATA bitsel<>+0x018(SB)/8, $0x0000000000000008
DATA bitsel<>+0x020(SB)/8, $0x0000000000000010
DATA bitsel<>+0x028(SB)/8, $0x0000000000000020
DATA bitsel<>+0x030(SB)/8, $0x0000000000000040
DATA bitsel<>+0x038(SB)/8, $0x0000000000000080
DATA bitsel<>+0x040(SB)/8, $0x0000000000000100
DATA bitsel<>+0x048(SB)/8, $0x0000000000000200
DATA bitsel<>+0x050(SB)/8, $0x0000000000000400
DATA bitsel<>+0x058(SB)/8, $0x0000000000000800
DATA bitsel<>+0x060(SB)/8, $0x0000000000001000
DATA bitsel<>+0x068(SB)/8, $0x0000000000002000
DATA bitsel<>+0x070(SB)/8, $0x0000000000004000
DATA bitsel<>+0x078(SB)/8, $0x0000000000008000
DATA bitsel<>+0x080(SB)/8, $0x0000000000010000
DATA bitsel<>+0x088(SB)/8, $0x0000000000020000
DATA bitsel<>+0x090(SB)/8, $0x0000000000040000
DATA bitsel<>+0x098(SB)/8, $0x0000000000080000
DATA bitsel<>+0x0a0(SB)/8, $0x0000000000100000
DATA bitsel<>+0x0a8(SB)/8, $0x0000000000200000
DATA bitsel<>+0x0b0(SB)/8, $0x0000000000400000
DATA bitsel<>+0x0b8(SB)/8, $0x0000000000800000
DATA bitsel<>+0x0c0(SB)/8, $0x0000000001000000
DATA bitsel<>+0x0c8(SB)/8, $0x0000000002000000
DATA bitsel<>+0x0d0(SB)/8, $0x0000000004000000
DATA bitsel<>+0x0d8(SB)/8, $0x0000000008000000
DATA bitsel<>+0x0e0(SB)/8, $0x0000000010000000
DATA bitsel<>+0x0e8(SB)/8, $0x0000000020000000
DATA bitsel<>+0x0f0(SB)/8, $0x0000000040000000
DATA bitsel<>+0x0f8(SB)/8, $0x0000000080000000
DATA bitsel<>+0x100(SB)/8, $0x0000000100000000
DATA bitsel<>+0x108(SB)/8, $0x0000000200000000
DATA bitsel<>+0x110(SB)/8, $0x0000000400000000
DATA bitsel<>+0x118(SB)/8, $0x0000000800000000
DATA bitsel<>+0x120(SB)/8, $0x0000001000000000
DATA bitsel<>+0x128(SB)/8, $0x0000002000000000
DATA bitsel<>+0x130(SB)/8, $0x0000004000000000
DATA bitsel<>+0x138(SB)/8, $0x0000008000000000
DATA bitsel<>+0x140(SB)/8, $0x0000010000000000
DATA bitsel<>+0x148(SB)/8, $0x0000020000000000
DATA bitsel<>+0x150(SB)/8, $0x0000040000000000
DATA bitsel<>+0x158(SB)/8, $0x0000080000000000
DATA bitsel<>+0x160(SB)/8, $0x0000100000000000
DATA bitsel<>+0x168(SB)/8, $0x0000200000000000
DATA bitsel<>+0x170(SB)/8, $0x0000400000000000
DATA bitsel<>+0x178(SB)/8, $0x0000800000000000
DATA bitsel<>+0x180(SB)/8, $0x0001000000000000
DATA bitsel<>+0x188(SB)/8, $0x0002000000000000
DATA bitsel<>+0x190(SB)/8, $0x0004000000000000
DATA bitsel<>+0x198(SB)/8, $0x0008000000000000
DATA bitsel<>+0x1a0(SB)/8, $0x0010000000000000
DATA bitsel<>+0x1a8(SB)/8, $0x0020000000000000
DATA bitsel<>+0x1b0(SB)/8, $0x0040000000000000
DATA bitsel<>+0x1b8(SB)/8, $0x0080000000000000
DATA bitsel<>+0x1c0(SB)/8, $0x0100000000000000
DATA bitsel<>+0x1c8(SB)/8, $0x0200000000000000
DATA bitsel<>+0x1d0(SB)/8, $0x0400000000000000
DATA bitsel<>+0x1d8(SB)/8, $0x0800000000000000
DATA bitsel<>+0x1e0(SB)/8, $0x1000000000000000
DATA bitsel<>+0x1e8(SB)/8, $0x2000000000000000
DATA bitsel<>+0x1f0(SB)/8, $0x4000000000000000
DATA bitsel<>+0x1f8(SB)/8, $0x8000000000000000
GLOBL bitsel<>(SB), RODATA|NOPTR, $512

// func buildAddendsAVX2(add *[64]int64, key uint64, delta int64)
//
// add[j] = delta & -((key>>j)&1), four lanes per iteration:
//   Y2 = bitsel[j..j+3]          (the four selector bits)
//   Y3 = (key & Y2) == Y2 ? ~0 : 0   per lane
//   Y3 &= delta
TEXT ·buildAddendsAVX2(SB), NOSPLIT, $0-24
	MOVQ add+0(FP), DI
	// Broadcast straight from the argument slots: VPBROADCASTQ m64 avoids a
	// legacy-SSE MOVQ GP->XMM, which would mix VEX and non-VEX encodings and
	// stall on AVX-SSE transition penalties.
	VPBROADCASTQ key+8(FP), Y0   // key in all lanes
	VPBROADCASTQ delta+16(FP), Y1 // delta in all lanes
	LEAQ bitsel<>(SB), SI
	MOVQ $4, DX
	XORQ BX, BX
loop:
	VMOVDQU (SI)(BX*1), Y2
	VMOVDQU 32(SI)(BX*1), Y4
	VMOVDQU 64(SI)(BX*1), Y6
	VMOVDQU 96(SI)(BX*1), Y8
	VPAND Y0, Y2, Y3
	VPAND Y0, Y4, Y5
	VPAND Y0, Y6, Y7
	VPAND Y0, Y8, Y9
	VPCMPEQQ Y2, Y3, Y3
	VPCMPEQQ Y4, Y5, Y5
	VPCMPEQQ Y6, Y7, Y7
	VPCMPEQQ Y8, Y9, Y9
	VPAND Y1, Y3, Y3
	VPAND Y1, Y5, Y5
	VPAND Y1, Y7, Y7
	VPAND Y1, Y9, Y9
	VMOVDQU Y3, (DI)(BX*1)
	VMOVDQU Y5, 32(DI)(BX*1)
	VMOVDQU Y7, 64(DI)(BX*1)
	VMOVDQU Y9, 96(DI)(BX*1)
	ADDQ $128, BX
	DECQ DX
	JNZ loop
	VZEROUPPER
	RET

// func addLanes64AVX2(dst, add *[64]int64)
//
// dst[j] += add[j] for j in [0,64): sixteen 4-lane VPADDQ groups, unrolled
// four groups per iteration.
TEXT ·addLanes64AVX2(SB), NOSPLIT, $0-16
	MOVQ dst+0(FP), DI
	MOVQ add+8(FP), SI
	MOVQ $4, DX
	XORQ BX, BX
loop:
	VMOVDQU (DI)(BX*1), Y0
	VMOVDQU 32(DI)(BX*1), Y1
	VMOVDQU 64(DI)(BX*1), Y2
	VMOVDQU 96(DI)(BX*1), Y3
	VPADDQ (SI)(BX*1), Y0, Y0
	VPADDQ 32(SI)(BX*1), Y1, Y1
	VPADDQ 64(SI)(BX*1), Y2, Y2
	VPADDQ 96(SI)(BX*1), Y3, Y3
	VMOVDQU Y0, (DI)(BX*1)
	VMOVDQU Y1, 32(DI)(BX*1)
	VMOVDQU Y2, 64(DI)(BX*1)
	VMOVDQU Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	DECQ DX
	JNZ loop
	VZEROUPPER
	RET

// func prefetchSig(p *int64)
//
// PREFETCHT0 at p, p+64, ..., p+512: nine lines, which hold the whole
// 528-byte signature when it starts within the first 49 bytes of its first
// line. In a page-aligned counter array the bucket starts step through line
// offsets 0, 16, 32 and 48 (528 = 8*64 + 16), so every bucket is covered.
// A prefetch never faults, so the lines past the end of an array are safe.
TEXT ·prefetchSig(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 256(AX)
	PREFETCHT0 320(AX)
	PREFETCHT0 384(AX)
	PREFETCHT0 448(AX)
	PREFETCHT0 512(AX)
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
