//go:build !amd64

package aes

// useAsm is false: the hardware kernels exist only on amd64. The stand-ins
// below run the T-table code, so the dispatch in aes.go and the tests that
// switch paths compile on every GOARCH.
var useAsm = false

func encryptAsm(rk *[nrk]uint32, dst, src *[16]byte) { encryptGeneric(rk, dst, src) }

func decryptAsm(rk *[nrk]uint32, dst, src *[16]byte) { decryptGeneric(rk, dst, src) }

func daviesMeyerAsm(dst, key, block *[16]byte) { *dst = daviesMeyerGeneric(key, block) }
