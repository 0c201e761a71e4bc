// Package dense provides the row-major dense matrix kernels used for
// GNN forward and backward propagation: blocked parallel matrix
// multiplication, elementwise activations, softmax cross-entropy, and
// parameter initialization.
package dense

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a row-major dense float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps an existing row-major slice. The slice is not copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("dense: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// RowView returns a view of row i; mutations are visible in m.
func (m *Matrix) RowView(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// Bytes returns the payload size used by communication cost modeling.
func (m *Matrix) Bytes() int { return 8 * len(m.Data) }

// Zero sets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddInPlace adds b elementwise into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: AddInPlace shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by f.
func (m *Matrix) Scale(f float64) {
	for i := range m.Data {
		m.Data[i] *= f
	}
}

// Every product below overwrites a caller-owned destination of the
// result's shape (whatever it held) and returns the multiply-add count.
// All inner loops are Axpy/Axpy2, each output element accumulates its
// terms from +0 in ascending order of the contracted index, and
// MatMulInto and TMatMulInto skip the terms whose left factor is exactly
// zero — so a product returns the same bits whichever body Axpy runs and
// however rows are split across workers.

// MatMulInto computes C = A * B into c, parallelized over row stripes
// of A.
func MatMulInto(c, a, b *Matrix) int64 {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MatMul dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMul", c, a.Rows, b.Cols)
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if Serial(a.Rows, flops) {
		matMulRows(c, a, b, 0, a.Rows)
	} else {
		ParallelRows(a.Rows, func(lo, hi int) { matMulRows(c, a, b, lo, hi) })
	}
	return flops
}

func matMulRows(c, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		clear(ci)
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		// Pairs of k share one pass over ci; (c + x) + y is the scalar
		// loop's schedule whether the adds sit in one pass or two.
		k := 0
		for ; k+1 < len(ai); k += 2 {
			a0, a1 := ai[k], ai[k+1]
			switch {
			case a0 == 0 && a1 == 0:
			case a1 == 0:
				Axpy(ci, a0, b.Data[k*n:(k+1)*n])
			case a0 == 0:
				Axpy(ci, a1, b.Data[(k+1)*n:(k+2)*n])
			default:
				Axpy2(ci, a0, b.Data[k*n:(k+1)*n], a1, b.Data[(k+1)*n:(k+2)*n])
			}
		}
		if k < len(ai) && ai[k] != 0 {
			Axpy(ci, ai[k], b.Data[k*n:(k+1)*n])
		}
	}
}

// MatMulTInto computes C = A * B^T into c. bt is scratch of B^T's shape
// and is overwritten with it: against the transposed copy the dot
// products become row updates, c[i] += a[i][k]·bt[k], with the same
// ascending-k chain per element. No term is skipped, so a zero in A
// still meets a non-finite value in B.
func MatMulTInto(c, a, b, bt *Matrix) int64 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MatMulT dims %dx%d * (%dx%d)^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMulT", c, a.Rows, b.Rows)
	checkDst("MatMulT scratch", bt, b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j, v := range b.Data[i*b.Cols : (i+1)*b.Cols] {
			bt.Data[j*b.Rows+i] = v
		}
	}
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	if Serial(a.Rows, flops) {
		matMulTRows(c, a, bt, 0, a.Rows)
	} else {
		ParallelRows(a.Rows, func(lo, hi int) { matMulTRows(c, a, bt, lo, hi) })
	}
	return flops
}

func matMulTRows(c, a, bt *Matrix, lo, hi int) {
	n := bt.Cols
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		clear(ci)
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		k := 0
		for ; k+1 < len(ai); k += 2 {
			Axpy2(ci, ai[k], bt.Data[k*n:(k+1)*n], ai[k+1], bt.Data[(k+1)*n:(k+2)*n])
		}
		if k < len(ai) {
			Axpy(ci, ai[k], bt.Data[k*n:(k+1)*n])
		}
	}
}

// TMatMulInto computes C = A^T * B into c. Serial: the output is small
// (feature x feature) in GNN training while a.Rows, the batch
// dimension, is large. Row pairs share one pass over each stripe of c;
// for a fixed (k, j) the adds still land in ascending-i order.
func TMatMulInto(c, a, b *Matrix) int64 {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: TMatMul dims (%dx%d)^T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("TMatMul", c, a.Cols, b.Cols)
	c.Zero()
	m, n := a.Cols, b.Cols
	i := 0
	for ; i+1 < a.Rows; i += 2 {
		a0, a1 := a.Data[i*m:(i+1)*m], a.Data[(i+1)*m:(i+2)*m]
		b0, b1 := b.Data[i*n:(i+1)*n], b.Data[(i+1)*n:(i+2)*n]
		for k, v0 := range a0 {
			v1 := a1[k]
			ck := c.Data[k*n : (k+1)*n]
			switch {
			case v0 == 0 && v1 == 0:
			case v1 == 0:
				Axpy(ck, v0, b0)
			case v0 == 0:
				Axpy(ck, v1, b1)
			default:
				Axpy2(ck, v0, b0, v1, b1)
			}
		}
	}
	if i < a.Rows {
		bi := b.Data[i*n : (i+1)*n]
		for k, av := range a.Data[i*m : (i+1)*m] {
			if av != 0 {
				Axpy(c.Data[k*n:(k+1)*n], av, bi)
			}
		}
	}
	return int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
}

func checkDst(op string, c *Matrix, rows, cols int) {
	if c.Rows != rows || c.Cols != cols {
		panic(fmt.Sprintf("dense: %s destination is %dx%d, want %dx%d", op, c.Rows, c.Cols, rows, cols))
	}
}

// parallelMinWork is the multiply-add count below which a kernel runs
// on the calling goroutine. Spawning and joining a goroutine set costs
// a few microseconds and a futex wake per worker — what 2^15 to 2^16
// multiply-adds cost at the vector kernels' rate. Against fanning out
// every call, serialising those under 2^17 measured -23 % epoch wall
// time on the p=128 contended-overlap workload and -8 % on largep-des
// (p=2048), whose minibatches are small, and changes nothing on
// replicated-bulk, whose products are 20 to 60 times the threshold.
const parallelMinWork = 1 << 17

// Serial reports whether a kernel over rows rows performing work
// multiply-adds should run on the calling goroutine rather than through
// ParallelRows. It is a question, not a wrapper taking the stripe
// function, so that a serial call never builds the closure the fan-out
// needs.
func Serial(rows int, work int64) bool {
	return work < parallelMinWork || rows < 2 || runtime.GOMAXPROCS(0) < 2
}

// ParallelRows splits [0, rows) into one stripe per GOMAXPROCS worker
// and returns when f has run on every stripe.
func ParallelRows(rows int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// zeroIf returns +0 when cond holds and v otherwise. Selecting on the
// bit pattern compiles to a conditional move: the ReLU passes test the
// sign of pre-activations, which changes from element to element at
// random, and a mispredicted branch costs several times the rest of
// their loop bodies.
func zeroIf(cond bool, v float64) float64 {
	bits := math.Float64bits(v)
	if cond {
		bits = 0
	}
	return math.Float64frombits(bits)
}

// ReLUInto writes z into h with negative elements replaced by 0. With a
// non-nil mask (inverted dropout) each element is also scaled by the
// mask's.
func ReLUInto(h, z, mask *Matrix) {
	checkDst("ReLU", h, z.Rows, z.Cols)
	out := h.Data[:len(z.Data)]
	if mask == nil {
		for i, v := range z.Data {
			out[i] = zeroIf(v < 0, v)
		}
		return
	}
	checkDst("ReLU mask", mask, z.Rows, z.Cols)
	scale := mask.Data[:len(z.Data)]
	for i, v := range z.Data {
		out[i] = zeroIf(v < 0, v) * scale[i]
	}
}

// ReLUGradInPlace turns the gradient of a ReLUInto output into the
// gradient of its pre-activation z: grad[i] becomes 0 where z[i] <= 0
// and is scaled by mask[i] (when mask is non-nil) elsewhere.
func ReLUGradInPlace(grad, z, mask *Matrix) {
	checkDst("ReLUGrad", grad, z.Rows, z.Cols)
	g := grad.Data[:len(z.Data)]
	if mask == nil {
		for i, zv := range z.Data {
			g[i] = zeroIf(zv <= 0, g[i])
		}
		return
	}
	checkDst("ReLUGrad mask", mask, z.Rows, z.Cols)
	scale := mask.Data[:len(z.Data)]
	for i, zv := range z.Data {
		g[i] = zeroIf(zv <= 0, g[i]*scale[i])
	}
}

// logSumExp returns log(sum(exp(row))), stabilized by subtracting the
// row max.
func logSumExp(row []float64) float64 {
	max := math.Inf(-1)
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range row {
		sum += math.Exp(v - max)
	}
	return max + math.Log(sum)
}

// CrossEntropyInto returns the mean negative log-likelihood of labels
// under row-wise softmax of logits and writes the gradient with respect
// to the logits (softmax - onehot, scaled by 1/rows) into grad.
func CrossEntropyInto(grad, logits *Matrix, labels []int) (loss float64) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("dense: CrossEntropy got %d labels for %d rows", len(labels), logits.Rows))
	}
	checkDst("CrossEntropy", grad, logits.Rows, logits.Cols)
	inv := 1.0 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("dense: label %d outside %d classes", y, logits.Cols))
		}
		row := logits.RowView(i)
		lse := logSumExp(row)
		loss -= row[y] - lse
		g := grad.RowView(i)
		for j, v := range row {
			g[j] = math.Exp(v-lse) * inv
		}
		g[y] -= inv
	}
	return loss * inv
}

// Argmax returns the index of the maximum element of each row.
func Argmax(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		best, bv := 0, row[0]
		for j, v := range row {
			if v > bv {
				best, bv = j, v
			}
		}
		out[i] = best
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	pred := Argmax(logits)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// XavierInit fills m with Glorot-uniform values using rng.
func XavierInit(m *Matrix, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
