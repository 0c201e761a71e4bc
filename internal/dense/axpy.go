package dense

// useAsm selects the vector bodies of Axpy and Axpy2. It is decided
// once, at init, from what the CPU reports; the differential tests
// clear it to run the Go bodies on a machine that has the assembly.
var useAsm = asmSupported()

// Axpy computes c[j] += a·b[j] over len(c) elements: the inner loop of
// every dense and sparse-dense product in this module.
//
// Each element is one multiply rounded to float64 and one add rounded
// to float64. The explicit conversion keeps a compiler from fusing the
// pair, and the assembly body issues them as separate instructions, so
// a vector lane performs exactly the two roundings of the scalar loop
// and both bodies return the same bits on every platform.
func Axpy(c []float64, a float64, b []float64) {
	b = b[:len(c)]
	if useAsm {
		axpyAsm(c, a, b)
		return
	}
	for j := range c {
		c[j] += float64(a * b[j])
	}
}

// Axpy2 computes c[j] = (c[j] + a0·b0[j]) + a1·b1[j]: two Axpy calls in
// one pass over c, with each element's adds in the same order.
func Axpy2(c []float64, a0 float64, b0 []float64, a1 float64, b1 []float64) {
	b0, b1 = b0[:len(c)], b1[:len(c)]
	if useAsm {
		axpy2Asm(c, a0, b0, a1, b1)
		return
	}
	for j := range c {
		c[j] = c[j] + float64(a0*b0[j]) + float64(a1*b1[j])
	}
}
