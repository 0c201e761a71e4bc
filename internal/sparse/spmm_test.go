package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	_ "repro/internal/dense"
)

// denseUseAsm is dense's unexported body selector, so SpMMInto and
// SpMMTInto can be held to their references under the assembly body and the Go
// body of dense.Axpy on a machine that has both.
//
//go:linkname denseUseAsm repro/internal/dense.useAsm
var denseUseAsm bool

// The references are the scalar loops SpMMInto and SpMMTInto are
// defined by:
// stored entries of A in storage order, every multiply and every add
// rounded on its own, accumulating from +0.

func refSpMM(a *CSR, b []float64, n int) []float64 {
	c := make([]float64, a.Rows*n)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, col := range cols {
			for j := 0; j < n; j++ {
				c[i*n+j] += float64(vals[k] * b[col*n+j])
			}
		}
	}
	return c
}

func refSpMMT(a *CSR, b []float64, n int) []float64 {
	c := make([]float64, a.Cols*n)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, col := range cols {
			for j := 0; j < n; j++ {
				c[col*n+j] += float64(vals[k] * b[i*n+j])
			}
		}
	}
	return c
}

var specialValues = []float64{math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}

// withSpecials overwrites a tenth of xs with -0, subnormals, ±Inf and
// NaN.
func withSpecials(rng *rand.Rand, xs []float64) {
	for i := range xs {
		if rng.Intn(10) == 0 {
			xs[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
}

func TestSpMMMatchesScalarReference(t *testing.T) {
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			// Any NaN equals any NaN: whose payload an add of two NaNs
			// returns is the compiler's operand order, not the algorithm's.
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	nans := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	hasAsm := denseUseAsm
	defer func() { denseUseAsm = hasAsm }()
	for _, asm := range []bool{true, false} {
		if asm && !hasAsm {
			continue
		}
		denseUseAsm = asm
		rng := rand.New(rand.NewSource(24))
		check := func(rows, inner, n int, density float64, specials bool) {
			what := fmt.Sprintf("asm %v %dx%d (density %v) by %d cols, specials %v", asm, rows, inner, density, n, specials)
			a := randomCSR(rng, rows, inner, density)
			b, bT := make([]float64, inner*n), make([]float64, rows*n)
			for _, xs := range [][]float64{b, bT} {
				for i := range xs {
					xs[i] = rng.NormFloat64()
				}
			}
			if specials {
				withSpecials(rng, a.Val)
				withSpecials(rng, b)
				withSpecials(rng, bT)
			}
			flops := int64(a.NNZ()) * int64(n)

			into := nans(rows * n)
			f := SpMMInto(into, a, b, n)
			same("SpMMInto "+what, into, refSpMM(a, b, n))
			if f != flops {
				t.Fatalf("SpMMInto %s: flops %d, want %d", what, f, flops)
			}

			into = nans(inner * n)
			f = SpMMTInto(into, a, bT, n)
			same("SpMMTInto "+what, into, refSpMMT(a, bT, n))
			if f != flops {
				t.Fatalf("SpMMTInto %s: flops %d, want %d", what, f, flops)
			}
		}
		for _, n := range []int{1, 3, 7, 8, 9, 47, 64} {
			for _, rows := range []int{0, 1, 5, 12} {
				for _, density := range []float64{0, 0.3, 1} {
					check(rows, 7, n, density, false)
					check(rows, 7, n, density, true)
				}
			}
		}
		// Above the fan-out threshold: rows are split across workers.
		check(400, 50, 47, 0.3, true)
	}
}
