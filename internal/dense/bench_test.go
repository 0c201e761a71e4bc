package dense

import (
	"math/rand"
	"testing"
)

func benchMat(r, c int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// benchReLU is benchMat after a ReLU: half of it exactly zero, like a
// hidden activation or its gradient.
func benchReLU(r, c int) *Matrix {
	m := benchMat(r, c)
	ReLUInto(m, m, nil)
	return m
}

// The product benchmarks run the shapes of the benchmark's
// replicated-bulk workload (products at the Bench profile: 32 features,
// hidden width 64, frontiers of about 4000 and 700 rows): the first
// convolution multiplies dense features, the second a half-zero hidden
// activation. Each product writes into a destination allocated once, as
// the model's workspace does.
func benchProduct(b *testing.B, f func(c, x, y *Matrix) int64, c, x, y *Matrix) {
	b.ReportAllocs()
	var flops int64
	for i := 0; i < b.N; i++ {
		flops = f(c, x, y)
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

func BenchmarkMatMul(b *testing.B) {
	b.Run("layer0", func(b *testing.B) { benchProduct(b, MatMulInto, New(4000, 64), benchMat(4000, 32), benchMat(32, 64)) })
	b.Run("layer1", func(b *testing.B) { benchProduct(b, MatMulInto, New(700, 64), benchReLU(700, 64), benchMat(64, 64)) })
}

func BenchmarkMatMulT(b *testing.B) {
	bt := New(64, 64)
	matMulT := func(c, x, y *Matrix) int64 { return MatMulTInto(c, x, y, bt) }
	b.Run("layer1", func(b *testing.B) { benchProduct(b, matMulT, New(700, 64), benchReLU(700, 64), benchMat(64, 64)) })
}

func BenchmarkTMatMul(b *testing.B) {
	b.Run("layer0", func(b *testing.B) { benchProduct(b, TMatMulInto, New(32, 64), benchMat(4000, 32), benchReLU(4000, 64)) })
	b.Run("layer1", func(b *testing.B) { benchProduct(b, TMatMulInto, New(64, 64), benchReLU(700, 64), benchReLU(700, 64)) })
}

func BenchmarkCrossEntropy(b *testing.B) {
	logits, grad := benchMat(1024, 47), New(1024, 47)
	labels := make([]int, 1024)
	for i := range labels {
		labels[i] = i % 47
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossEntropyInto(grad, logits, labels)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	params := make([]float64, 100000)
	grads := make([]float64, 100000)
	for i := range grads {
		grads[i] = 0.01
	}
	opt := NewAdam(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params, grads)
	}
}
