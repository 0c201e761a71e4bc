package dense

// useAsm selects the vector bodies of Axpy, Axpy2 and productRow. It is
// decided once, at init, from what the CPU reports; the differential
// tests clear it to run the Go bodies on a machine that has the
// assembly.
var useAsm = asmSupported()

// Axpy computes c[j] += a·b[j] over len(c) elements: the inner loop of
// the sparse-dense products and of the sum all-reduce's fold.
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

// tileWidth is the column count of productRow's register tile: a strip
// of 32 float64 is eight 4-lane accumulators, half the AVX2 register
// file, leaving room for the broadcast factor, the tail mask and a
// product.
const tileWidth = 32

// zeroRow is the row a skipped step reads in place of b's.
var zeroRow [tileWidth]float64

// productRow computes c[j] = Σ_{t<k} a[t·lda]·b[t·ldb+j] for every j <
// len(c): the one inner kernel of MatMulInto, MatMulTInto and
// TMatMulInto. Each element's chain starts at +0, or at c's own value
// when cont is set, and adds its terms in ascending t, each product
// rounded and then added with the accumulator as the first addend.
//
// With skip, a step whose a[t·lda] is ±0 reads zeroRow instead of b's
// row t (the assembly selects it by a conditional move: a ReLU
// output's zeros fall at random, and a branch on them mispredicts), so
// it adds ±0·(+0) in place of a product that might be NaN. Adding ±0 changes no accumulator but a −0, and a chain that
// starts at +0 never holds −0 (x + y is −0 only when both are; a
// continued chain, like TMatMulInto's later chunks, started at +0
// too), so the products get the chain with the term left out.
//
// Both bodies walk c in strips of tileWidth columns and run the whole
// chain over one strip before the next: the assembly body keeps the
// strip in registers and stores it once, the Go body makes one pass
// over the strip per four steps.
func productRow(c, a []float64, lda int, b []float64, ldb, k int, cont, skip bool) {
	n := len(c)
	if n == 0 {
		return
	}
	if k == 0 {
		if !cont {
			clear(c)
		}
		return
	}
	_ = a[(k-1)*lda]
	_ = b[(k-1)*ldb+n-1]
	if useAsm {
		productRowAsm(c, a, lda, b, ldb, k, cont, skip)
		return
	}
	for j0 := 0; j0 < n; j0 += tileWidth {
		cs := c[j0:min(j0+tileWidth, n)]
		if !cont {
			clear(cs)
		}
		// Step t reads row(t); ((c + x) + y) + … is the chain's order
		// whether the steps share a pass or not.
		row := func(t int) (float64, []float64) {
			av := a[t*lda]
			if skip && av == 0 {
				return av, zeroRow[:]
			}
			return av, b[t*ldb+j0:]
		}
		t := 0
		for ; t+3 < k; t += 4 {
			a0, b0 := row(t)
			a1, b1 := row(t + 1)
			a2, b2 := row(t + 2)
			a3, b3 := row(t + 3)
			b0, b1, b2, b3 = b0[:len(cs)], b1[:len(cs)], b2[:len(cs)], b3[:len(cs)]
			for j := range cs {
				cs[j] = cs[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
			}
		}
		for ; t < k; t++ {
			av, bt := row(t)
			bt = bt[:len(cs)]
			for j := range cs {
				cs[j] += float64(av * bt[j])
			}
		}
	}
}
