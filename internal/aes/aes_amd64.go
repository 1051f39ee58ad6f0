package aes

// useAsm selects the AES-NI kernels of aes_amd64.s. It is set once at init
// from CPUID: the rounds need AES-NI (CPUID.1:ECX bit 25), the round-key
// byte swap and the key expansion's word rotation need SSSE3's PSHUFB
// (bit 9). Only this package's tests change it afterwards, to run both
// paths.
var useAsm = hasAESNI()

func hasAESNI() bool {
	const aesni, ssse3 = 1 << 25, 1 << 9
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&aesni != 0 && ecx&ssse3 != 0
}

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
//
//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// encryptAsm enciphers src into dst with AESENC under the round keys rk of
// a Schedule.
//
//go:noescape
func encryptAsm(rk *[nrk]uint32, dst, src *[16]byte)

// decryptAsm deciphers src into dst with AESDEC under the equivalent-
// inverse round keys rk of an InvSchedule.
//
//go:noescape
func decryptAsm(rk *[nrk]uint32, dst, src *[16]byte)

// daviesMeyerAsm sets *dst to AES_key(block) xor block, expanding the key
// round by round alongside the encryption.
//
//go:noescape
func daviesMeyerAsm(dst, key, block *[16]byte)
