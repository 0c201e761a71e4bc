package sparse

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int, deg float64) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	coo := NewCOO(n, n, int(float64(n)*deg))
	for i := 0; i < int(float64(n)*deg); i++ {
		coo.Add(rng.Intn(n), rng.Intn(n), 1)
	}
	return coo.ToCSR()
}

func benchSelector(n, rows int) *CSR {
	coo := NewCOO(rows, n, rows)
	for i := 0; i < rows; i++ {
		coo.Add(i, (i*7919)%n, 1)
	}
	return coo.ToCSR()
}

func BenchmarkSpGEMMSelector(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	q := benchSelector(10000, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpGEMM(q, a)
	}
}

func BenchmarkSpGEMMSquare(b *testing.B) {
	a := benchGraph(b, 2000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpGEMM(a, a)
	}
}

// benchFanout is a sampled adjacency block: rows x cols with fanout
// unit entries per row.
func benchFanout(rows, cols, fanout int) *CSR {
	rng := rand.New(rand.NewSource(1))
	coo := NewCOO(rows, cols, rows*fanout)
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:fanout] {
			coo.Add(i, j, 1)
		}
	}
	return coo.ToCSR()
}

// The SpMM benchmarks run the shapes of the benchmark's replicated-bulk
// workload: the first convolution aggregates 32 features over fanout 3,
// the second pushes a 64-wide gradient back through fanout 5. Each
// writes into a destination of cRows x n allocated once.
func benchSpMM(b *testing.B, f func(c []float64, a *CSR, x []float64, n int) int64, a *CSR, xRows, cRows, n int) {
	x := make([]float64, xRows*n)
	for i := range x {
		x[i] = float64(i % 13)
	}
	c := make([]float64, cRows*n)
	b.ReportAllocs()
	b.ResetTimer()
	var flops int64
	for i := 0; i < b.N; i++ {
		flops = f(c, a, x, n)
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

func BenchmarkSpMM(b *testing.B) {
	benchSpMM(b, SpMMInto, benchFanout(4000, 14000, 3), 14000, 4000, 32)
}

func BenchmarkSpMMT(b *testing.B) {
	benchSpMM(b, SpMMTInto, benchFanout(700, 4000, 5), 700, 4000, 64)
}
