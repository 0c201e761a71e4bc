package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return c
}

func matNear(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		a := randMat(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		b := randMat(rng, a.Cols, 1+rng.Intn(20))
		got := New(a.Rows, b.Cols)
		flops := MatMulInto(got, a, b)
		if !matNear(got, naiveMul(a, b), 1e-9) {
			t.Fatalf("trial %d: MatMul mismatch", trial)
		}
		if flops != int64(a.Rows)*int64(a.Cols)*int64(b.Cols) {
			t.Fatalf("flops wrong: %d", flops)
		}
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		a := randMat(rng, 1+rng.Intn(15), 1+rng.Intn(15))
		b := randMat(rng, 1+rng.Intn(15), a.Cols)
		abT := New(a.Rows, b.Rows)
		MatMulTInto(abT, a, b, New(b.Cols, b.Rows))
		bT := New(b.Cols, b.Rows)
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				bT.Set(j, i, b.At(i, j))
			}
		}
		if !matNear(abT, naiveMul(a, bT), 1e-9) {
			t.Fatalf("trial %d: MatMulT mismatch", trial)
		}

		c := randMat(rng, a.Rows, 1+rng.Intn(15))
		aTc := New(a.Cols, c.Cols)
		TMatMulInto(aTc, a, c)
		aT := New(a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				aT.Set(j, i, a.At(i, j))
			}
		}
		if !matNear(aTc, naiveMul(aT, c), 1e-9) {
			t.Fatalf("trial %d: TMatMul mismatch", trial)
		}
	}
}

func TestMatMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MatMulInto(New(2, 5), New(2, 3), New(4, 5))
}

func TestReLUAndGrad(t *testing.T) {
	z := FromSlice(2, 2, []float64{-1, 2, 0, 3})
	mask := FromSlice(2, 2, []float64{2, 2, 2, 0})
	for _, tc := range []struct {
		mask         *Matrix
		wantH, wantG []float64
	}{
		{nil, []float64{0, 2, 0, 3}, []float64{0, 10, 0, 10}},
		{mask, []float64{0, 4, 0, 0}, []float64{0, 20, 0, 0}},
	} {
		h := FromSlice(2, 2, []float64{9, 9, 9, 9})
		ReLUInto(h, z, tc.mask)
		g := FromSlice(2, 2, []float64{10, 10, 10, 10})
		ReLUGradInPlace(g, z, tc.mask)
		for i := range tc.wantH {
			if h.Data[i] != tc.wantH[i] || g.Data[i] != tc.wantG[i] {
				t.Fatalf("mask %v: ReLU = %v, want %v; grad = %v, want %v",
					tc.mask != nil, h.Data, tc.wantH, g.Data, tc.wantG)
			}
		}
	}
}

func TestLogSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 6, 9)
	m.Scale(30) // stress numerical stability
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		lse := logSumExp(row)
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - lse)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d softmax sums to %v", i, sum)
		}
	}
}

func TestCrossEntropyGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := randMat(rng, 4, 5)
	labels := []int{1, 0, 4, 2}
	grad, scratch := New(4, 5), New(4, 5)
	CrossEntropyInto(grad, logits, labels)
	const eps = 1e-6
	for i := 0; i < logits.Rows; i++ {
		for j := 0; j < logits.Cols; j++ {
			orig := logits.At(i, j)
			logits.Set(i, j, orig+eps)
			lp := CrossEntropyInto(scratch, logits, labels)
			logits.Set(i, j, orig-eps)
			lm := CrossEntropyInto(scratch, logits, labels)
			logits.Set(i, j, orig)
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad.At(i, j)) > 1e-5 {
				t.Fatalf("grad(%d,%d) = %v, numeric %v", i, j, grad.At(i, j), num)
			}
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := FromSlice(2, 3, []float64{100, 0, 0, 0, 100, 0})
	loss := CrossEntropyInto(New(2, 3), logits, []int{0, 1})
	if loss > 1e-6 {
		t.Fatalf("perfect prediction loss = %v", loss)
	}
}

func TestAccuracy(t *testing.T) {
	logits := FromSlice(3, 2, []float64{1, 0, 0, 1, 1, 0})
	acc := Accuracy(logits, []int{0, 1, 1})
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(30, 40)
	XavierInit(m, rng)
	limit := math.Sqrt(6.0 / 70.0)
	nonzero := 0
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("init value %v exceeds limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("init left most entries zero")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := []float64{5, -5}
	opt := NewAdam(0.05)
	for iter := 0; iter < 2000; iter++ {
		g := []float64{2 * (params[0] - 3), 2 * (params[1] + 2)}
		opt.Step(params, g)
	}
	if math.Abs(params[0]-3) > 1e-2 || math.Abs(params[1]+2) > 1e-2 {
		t.Fatalf("Adam converged to %v", params)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 4, 5)
		b := randMat(rng, 5, 6)
		c := randMat(rng, 6, 3)
		mul := func(x, y *Matrix) *Matrix {
			z := New(x.Rows, y.Cols)
			MatMulInto(z, x, y)
			return z
		}
		return matNear(mul(mul(a, b), c), mul(a, mul(b, c)), 1e-8)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddInPlaceAndScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	a.AddInPlace(b)
	a.Scale(0.5)
	want := []float64{5.5, 11, 16.5, 22}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("got %v, want %v", a.Data, want)
		}
	}
}

func TestFromSliceWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAddInPlaceShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).AddInPlace(New(2, 3))
}

func TestReLUGradShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReLUGradInPlace(New(3, 2), New(2, 2), nil)
}

func TestCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropyInto(New(1, 3), New(1, 3), []int{5})
}

func TestCrossEntropyLabelCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropyInto(New(2, 3), New(2, 3), []int{0})
}

func TestAccuracyEmptyMatrix(t *testing.T) {
	if Accuracy(New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At broken")
	}
	rv := m.RowView(1)
	rv[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("RowView must alias")
	}
	if m.Bytes() != 48 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
}

func TestTMatMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TMatMulInto(New(3, 3), New(2, 3), New(3, 3))
}

func TestMatMulTDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulTInto(New(2, 2), New(2, 3), New(2, 4), New(4, 2))
}
