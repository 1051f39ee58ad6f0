#include "textflag.h"

// The AES-NI kernels. Schedule and InvSchedule hold each round key as four
// FIPS-197 words (big-endian); stored little-endian, a word's four bytes
// lie reversed in memory, so one PSHUFB with wordSwap turns 16 bytes of
// schedule into the byte-order round key AESENC and AESDEC take.
DATA wordSwap<>+0(SB)/8, $0x0405060700010203
DATA wordSwap<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL wordSwap<>(SB), RODATA|NOPTR, $16

// rotWord broadcasts RotWord(w3) of a round key into all four columns:
// bytes 13, 14, 15, 12 in each 32-bit lane.
DATA rotWord<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotWord<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotWord<>(SB), RODATA|NOPTR, $16

// rcon1 and rcon1b are the round constants 0x01 and 0x1b in every lane;
// a PSLLL by one steps 0x01 to 0x80 and 0x1b to 0x36.
DATA rcon1<>+0(SB)/8, $0x0000000100000001
DATA rcon1<>+8(SB)/8, $0x0000000100000001
GLOBL rcon1<>(SB), RODATA|NOPTR, $16

DATA rcon1b<>+0(SB)/8, $0x0000001b0000001b
DATA rcon1b<>+8(SB)/8, $0x0000001b0000001b
GLOBL rcon1b<>(SB), RODATA|NOPTR, $16

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// KEY loads the round key at byte offset off of the schedule at AX into
// X1, byte-swapped by the mask in X7.
#define KEY(off) MOVOU off(AX), X1; PSHUFB X7, X1

// func encryptAsm(rk *[44]uint32, dst, src *[16]byte)
TEXT ·encryptAsm(SB), NOSPLIT, $0-24
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DX
	MOVQ  src+16(FP), BX
	MOVOU wordSwap<>(SB), X7
	MOVOU (BX), X0
	KEY(0)
	PXOR  X1, X0
	KEY(16)
	AESENC X1, X0
	KEY(32)
	AESENC X1, X0
	KEY(48)
	AESENC X1, X0
	KEY(64)
	AESENC X1, X0
	KEY(80)
	AESENC X1, X0
	KEY(96)
	AESENC X1, X0
	KEY(112)
	AESENC X1, X0
	KEY(128)
	AESENC X1, X0
	KEY(144)
	AESENC X1, X0
	KEY(160)
	AESENCLAST X1, X0
	MOVOU X0, (DX)
	RET

// func decryptAsm(rk *[44]uint32, dst, src *[16]byte)
TEXT ·decryptAsm(SB), NOSPLIT, $0-24
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DX
	MOVQ  src+16(FP), BX
	MOVOU wordSwap<>(SB), X7
	MOVOU (BX), X0
	KEY(0)
	PXOR  X1, X0
	KEY(16)
	AESDEC X1, X0
	KEY(32)
	AESDEC X1, X0
	KEY(48)
	AESDEC X1, X0
	KEY(64)
	AESDEC X1, X0
	KEY(80)
	AESDEC X1, X0
	KEY(96)
	AESDEC X1, X0
	KEY(112)
	AESDEC X1, X0
	KEY(128)
	AESDEC X1, X0
	KEY(144)
	AESDEC X1, X0
	KEY(160)
	AESDECLAST X1, X0
	MOVOU X0, (DX)
	RET

// NEXTKEY advances the round key in X1 by one step of the AES-128 key
// expansion under the round constant in X5 (one per lane), with the
// rotWord mask in X6 and X2, X3 as scratch. X2 gets
// SubWord(RotWord(w3)) xor rcon in every lane: AESENCLAST is ShiftRows,
// SubBytes and an xor, and ShiftRows leaves a state of four equal columns
// as it is. X1 gets the running xor of its words (w0, w0^w1, ...) by
// three shifted copies, then X2: w0' = w0^t, w1' = w1^w0', and so on.
#define NEXTKEY \
	MOVO       X1, X2; \
	PSHUFB     X6, X2; \
	AESENCLAST X5, X2; \
	MOVO       X1, X3; \
	PSLLO      $4, X3; \
	PXOR       X3, X1; \
	PSLLO      $4, X3; \
	PXOR       X3, X1; \
	PSLLO      $4, X3; \
	PXOR       X3, X1; \
	PXOR       X2, X1

// ROUND runs one middle round of the step: next key, AESENC, next
// round constant.
#define ROUND \
	NEXTKEY; \
	AESENC X1, X0; \
	PSLLL  $1, X5

// func daviesMeyerAsm(dst, key, block *[16]byte)
TEXT ·daviesMeyerAsm(SB), NOSPLIT, $0-24
	MOVQ  dst+0(FP), DX
	MOVQ  key+8(FP), AX
	MOVQ  block+16(FP), BX
	MOVOU rotWord<>(SB), X6
	MOVOU rcon1<>(SB), X5
	MOVOU (AX), X1
	MOVOU (BX), X4
	MOVO  X4, X0
	PXOR  X1, X0
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	ROUND
	MOVOU rcon1b<>(SB), X5
	ROUND
	NEXTKEY
	AESENCLAST X1, X0
	PXOR  X4, X0
	MOVOU X0, (DX)
	RET
