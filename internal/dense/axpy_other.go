//go:build !amd64

package dense

func asmSupported() bool { return false }

func axpyAsm(c []float64, a float64, b []float64) {
	panic("dense: no assembly body on this platform")
}

func axpy2Asm(c []float64, a0 float64, b0 []float64, a1 float64, b1 []float64) {
	panic("dense: no assembly body on this platform")
}

func productRowAsm(c []float64, a []float64, lda int, b []float64, ldb int, k int, cont bool, skip bool) {
	panic("dense: no assembly body on this platform")
}
