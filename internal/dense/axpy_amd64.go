package dense

// asmSupported reports whether the CPU and the operating system support
// the AVX2 bodies: the AVX and AVX2 feature bits, and OSXSAVE with the
// XMM and YMM halves of the register file enabled in XCR0.
func asmSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly bodies require len(b), len(b0), len(b1) >= len(c), and
// productRowAsm what productRow checks: len(c) >= 1, k >= 1, and a and
// b holding every element the chain reads.

//go:noescape
func axpyAsm(c []float64, a float64, b []float64)

//go:noescape
func axpy2Asm(c []float64, a0 float64, b0 []float64, a1 float64, b1 []float64)

//go:noescape
func productRowAsm(c []float64, a []float64, lda int, b []float64, ldb int, k int, cont bool, skip bool)
