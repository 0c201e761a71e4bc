package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseMul multiplies two row-major dense matrices; the reference
// implementation SpGEMM and SpMM are checked against.
func denseMul(a []float64, ar, ac int, b []float64, bc int) []float64 {
	out := make([]float64, ar*bc)
	for i := 0; i < ar; i++ {
		for k := 0; k < ac; k++ {
			v := a[i*ac+k]
			if v == 0 {
				continue
			}
			for j := 0; j < bc; j++ {
				out[i*bc+j] += v * b[k*bc+j]
			}
		}
	}
	return out
}

func TestSpGEMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a := randomCSR(rng, m, k, 0.3)
		b := randomCSR(rng, k, n, 0.3)
		c, flops := SpGEMM(a, b)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		want := denseMul(a.ToDense(), m, k, b.ToDense(), n)
		got := c.ToDense()
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("trial %d: SpGEMM mismatch at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
		if _, want := refSpGEMM(a, b); flops != want {
			t.Fatalf("flops %d, want %d", flops, want)
		}
	}
}

func TestSpGEMMDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched dims")
		}
	}()
	SpGEMM(Zero(2, 3), Zero(4, 2))
}

func TestSpGEMMEmptyOperands(t *testing.T) {
	c, flops := SpGEMM(Zero(3, 4), Zero(4, 5))
	if c.NNZ() != 0 || flops != 0 {
		t.Fatalf("empty product has nnz=%d flops=%d", c.NNZ(), flops)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMAssociativityProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 6, 5, 0.4)
		b := randomCSR(rng, 5, 7, 0.4)
		c := randomCSR(rng, 7, 4, 0.4)
		ab, _ := SpGEMM(a, b)
		abc1, _ := SpGEMM(ab, c)
		bc, _ := SpGEMM(b, c)
		abc2, _ := SpGEMM(a, bc)
		d1, d2 := abc1.ToDense(), abc2.ToDense()
		for i := range d1 {
			if math.Abs(d1[i]-d2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCSRInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(rng, 8, 9, 0.3)
		b := randomCSR(rng, 8, 9, 0.3)
		s := mergeCSRInto(&sc, new(CSR), []*CSR{a, b})
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		da, db, ds := a.ToDense(), b.ToDense(), s.ToDense()
		for i := range da {
			if math.Abs(da[i]+db[i]-ds[i]) > 1e-12 {
				t.Fatalf("merge mismatch at %d", i)
			}
		}
	}
}

func TestMergeCSRIntoCommutative(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 6, 6, 0.35)
		b := randomCSR(rng, 6, 6, 0.35)
		var sc Scratch
		return Equal(mergeCSRInto(&sc, new(CSR), []*CSR{a, b}), mergeCSRInto(&sc, new(CSR), []*CSR{b, a}), 1e-12)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(8)
		a := randomCSR(rng, m, k, 0.4)
		b := make([]float64, k*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, m*n)
		SpMMInto(got, a, b, n)
		want := denseMul(a.ToDense(), m, k, b, n)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("SpMM mismatch at %d", i)
			}
		}
	}
}

func TestSpMMTMatchesTransposeSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(6)
		a := randomCSR(rng, m, k, 0.4)
		b := make([]float64, m*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, want := make([]float64, k*n), make([]float64, k*n)
		SpMMTInto(got, a, b, n)
		SpMMInto(want, a.Transpose(), b, n)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("SpMMT mismatch at %d", i)
			}
		}
	}
}

func TestInsertionAndQuickSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1000)
		}
		insertionSort(a)
		for i := 1; i < n; i++ {
			if a[i-1] > a[i] {
				t.Fatalf("sort failed at trial %d index %d", trial, i)
			}
		}
	}
}
