package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references are the scalar loops the products are defined by: each
// output element accumulates from +0 in ascending order of the
// contracted index, every multiply and every add rounded on its own,
// and MatMul and TMatMul skip terms whose left factor is zero.

func refMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += float64(av * b.At(k, j))
			}
		}
	}
	return c
}

func refMatMulT(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k) * b.At(j, k))
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func refTMatMul(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[k*c.Cols+j] += float64(av * b.At(i, j))
			}
		}
	}
	return c
}

// kernelMat draws a rows x cols matrix with the given fraction of exact
// zeros; with specials, a tenth of the rest are -0, subnormal, ±Inf or
// NaN.
func kernelMat(rng *rand.Rand, rows, cols int, zeroFrac float64, specials bool) *Matrix {
	special := []float64{math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	m := New(rows, cols)
	for i := range m.Data {
		switch {
		case rng.Float64() < zeroFrac:
		case specials && rng.Intn(10) == 0:
			m.Data[i] = special[rng.Intn(len(special))]
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// garbage returns a destination no kernel may read from.
func garbage(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// sameBits compares two results bit for bit, except that any NaN equals
// any NaN: whose payload an add of two NaNs returns depends on the
// operand order the compiler picked, and two Go loops over the same
// expression already disagree about it.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// eachBody runs f under every body of productRow, Axpy and Axpy2 this
// platform has.
func eachBody(t *testing.T, f func(t *testing.T)) {
	defer func(was bool) { useAsm = was }(useAsm)
	for _, asm := range []bool{true, false} {
		if asm && !asmSupported() {
			continue
		}
		useAsm = asm
		t.Run(map[bool]string{true: "asm", false: "go"}[asm], f)
	}
}

func TestKernelsMatchScalarReference(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		check := func(rows, inner, cols int, zeroFrac float64, specials bool) {
			what := fmt.Sprintf("%dx%dx%d zeros %v specials %v", rows, inner, cols, zeroFrac, specials)
			flops := int64(rows) * int64(inner) * int64(cols)

			a := kernelMat(rng, rows, inner, zeroFrac, specials)
			b := kernelMat(rng, inner, cols, 0.1, specials)
			into := garbage(rows, cols)
			f := MatMulInto(into, a, b)
			sameBits(t, "MatMulInto "+what, into.Data, refMatMul(a, b).Data)
			if f != flops {
				t.Fatalf("MatMulInto %s: flops %d, want %d", what, f, flops)
			}

			bT := kernelMat(rng, cols, inner, 0.1, specials)
			into = garbage(rows, cols)
			f = MatMulTInto(into, a, bT, garbage(inner, cols))
			sameBits(t, "MatMulTInto "+what, into.Data, refMatMulT(a, bT).Data)
			if f != flops {
				t.Fatalf("MatMulTInto %s: flops %d, want %d", what, f, flops)
			}

			// (inner x rows)^T * (inner x cols): inner is the batch dimension.
			aT := kernelMat(rng, inner, rows, zeroFrac, specials)
			into = garbage(rows, cols)
			f = TMatMulInto(into, aT, b)
			sameBits(t, "TMatMulInto "+what, into.Data, refTMatMul(aT, b).Data)
			if f != flops {
				t.Fatalf("TMatMulInto %s: flops %d, want %d", what, f, flops)
			}
		}
		// Column counts straddle productRow's tile (tileWidth = 32) and
		// its 4-lane groups.
		for _, cols := range []int{1, 3, 7, 8, 9, 31, 32, 33, 40, 47, 63, 64, 65, 96} {
			for _, rows := range []int{0, 1, 2, 5, 12} {
				for _, inner := range []int{1, 2, 7, 33} {
					for _, zeroFrac := range []float64{0, 0.5, 1} {
						check(rows, inner, cols, zeroFrac, false)
						check(rows, inner, cols, zeroFrac, true)
					}
				}
			}
		}
		// Inner lengths straddling TMatMulInto's row chunk: its chains
		// continue from one chunk into the next.
		ch := tMatMulChunk
		for _, cols := range []int{1, 33, 47} {
			for _, inner := range []int{ch - 1, ch, ch + 1, 2*ch + 1} {
				for _, zeroFrac := range []float64{0, 0.5} {
					check(5, inner, cols, zeroFrac, false)
					check(5, inner, cols, zeroFrac, true)
				}
			}
		}
		// Above parallelMinWork: rows are split across workers.
		check(301, 33, 47, 0.5, true)
	})
}

func TestAxpyBodiesAgree(t *testing.T) {
	if !asmSupported() {
		t.Skip("one body on this platform")
	}
	defer func(was bool) { useAsm = was }(useAsm)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 70; n++ {
		for _, specials := range []bool{false, true} {
			c := kernelMat(rng, 1, n, 0.1, specials).Data
			b0 := kernelMat(rng, 1, n+3, 0.1, specials).Data // longer than c: only len(c) elements are touched
			b1 := kernelMat(rng, 1, n, 0.1, specials).Data
			a0, a1 := rng.NormFloat64(), rng.NormFloat64()
			var out [2][]float64
			for body, asm := range []bool{true, false} {
				useAsm = asm
				out[body] = append([]float64(nil), c...)
				Axpy(out[body], a0, b0)
				Axpy2(out[body], a1, b1, a0, b0)
			}
			sameBits(t, fmt.Sprintf("n=%d specials %v", n, specials), out[0], out[1])
		}
	}
}

// TestProductRowBodiesAgree holds the assembly body of productRow to the
// Go body on arbitrary strides and c's own values, which the products
// above never pass: continuation from any c (−0 and non-finite values
// included), skipped and unskipped steps, every width through two full
// tiles and a tail.
func TestProductRowBodiesAgree(t *testing.T) {
	if !asmSupported() {
		t.Skip("one body on this platform")
	}
	defer func(was bool) { useAsm = was }(useAsm)
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 70; n++ {
		for _, k := range []int{0, 1, 2, 9} {
			for _, specials := range []bool{false, true} {
				lda, ldb := 1+rng.Intn(3), n+rng.Intn(3)
				a := kernelMat(rng, 1, k*lda, 0.3, specials).Data
				b := kernelMat(rng, 1, k*ldb+n, 0.1, specials).Data
				c := kernelMat(rng, 1, n, 0.1, specials).Data
				for _, cont := range []bool{false, true} {
					for _, skip := range []bool{false, true} {
						var out [2][]float64
						for body, asm := range []bool{true, false} {
							useAsm = asm
							out[body] = append([]float64(nil), c...)
							productRow(out[body], a, lda, b, ldb, k, cont, skip)
						}
						sameBits(t, fmt.Sprintf("n=%d k=%d lda=%d ldb=%d cont %v skip %v specials %v",
							n, k, lda, ldb, cont, skip, specials), out[0], out[1])
					}
				}
			}
		}
	}
}
