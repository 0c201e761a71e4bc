// Package dense provides the row-major dense matrix kernels used for
// GNN forward and backward propagation: matrix products built on one
// register-tiled row kernel (productRow) and split over row stripes
// when large, elementwise activations, softmax cross-entropy, and
// parameter initialization.
package dense

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
//
//gnnvet:allow deadexport — the pipeline and dense tests read single entries with it
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// RowView returns a view of row i; mutations are visible in m.
func (m *Matrix) RowView(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

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

// Every product below overwrites a caller-owned destination of the
// result's shape (whatever it held) and returns the multiply-add count.
// Each is a loop of productRow calls: every output element accumulates
// its terms from +0 in ascending order of the contracted index, and
// MatMulInto and TMatMulInto skip the terms whose left factor is ±0 —
// so a product returns the same bits whichever body productRow runs
// and however rows are split across workers.

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
	n, k := b.Cols, a.Cols
	for i := lo; i < hi; i++ {
		productRow(c.Data[i*n:(i+1)*n], a.Data[i*k:], 1, b.Data, n, k, false, true)
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
	n, k := bt.Cols, a.Cols
	for i := lo; i < hi; i++ {
		productRow(c.Data[i*n:(i+1)*n], a.Data[i*k:], 1, bt.Data, n, k, false, false)
	}
}

// tMatMulChunk is how many rows of A and B one pass of TMatMulInto
// reads: at the model's widths (up to 64 + 64 columns) a chunk of both
// is at most 64 KiB, so each output row's chain over the chunk finds
// them in L1/L2 instead of streaming all of B from L2 once per output
// strip.
const tMatMulChunk = 64

// TMatMulInto computes C = A^T * B into c. Serial: the output is small
// (feature x feature) in GNN training while a.Rows, the batch
// dimension and the contracted index, is large. The rows are walked in
// chunks of tMatMulChunk, every output row continuing its chain from
// the previous chunk, so for a fixed (k, j) the adds still land in
// ascending-i order.
func TMatMulInto(c, a, b *Matrix) int64 {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: TMatMul dims (%dx%d)^T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("TMatMul", c, a.Cols, b.Cols)
	m, n := a.Cols, b.Cols
	if a.Rows == 0 {
		c.Zero()
	}
	for i0 := 0; i0 < a.Rows; i0 += tMatMulChunk {
		rows := min(tMatMulChunk, a.Rows-i0)
		for k := 0; k < m; k++ {
			productRow(c.Data[k*n:(k+1)*n], a.Data[i0*m+k:], m, b.Data[i0*n:], n, rows, i0 > 0, true)
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
// multiply-adds cost at the rate of the Axpy/Axpy2 row-update products
// (3.4–4.7 Gmadd/s per core), which is what the break-even below was
// measured with. Against fanning out every call, serialising those
// under 2^17 measured -23 % epoch wall time on the p=128
// contended-overlap workload and -8 % on largep-des (p=2048), whose
// minibatches are small, and changes nothing on replicated-bulk, whose
// products are 20 to 60 times the threshold. productRow runs about
// twice that rate, so the break-even may now sit higher; it has not
// been re-measured.
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
// and returns when f has run on every stripe. A panic in a stripe does
// not end the process: each stripe's panic is recovered, and once every
// stripe has finished, the first of them in stripe order is raised
// again, with its original value, on the calling goroutine. A caller
// that recovers a kernel's panic (the collectives' folds poison their
// generation with it) sees it as it would from a serial call.
func ParallelRows(rows int, f func(lo, hi int)) {
	workers := max(min(runtime.GOMAXPROCS(0), rows), 1)
	var g stripeGroup
	chunk := (rows + workers - 1) / workers
	for k, lo := 0, 0; lo < rows; k, lo = k+1, lo+chunk {
		g.wg.Add(1)
		go g.run(k, lo, min(lo+chunk, rows), f)
	}
	g.wg.Wait()
	if p := g.first.Load(); p != nil {
		panic(p.val)
	}
}

// stripeGroup joins ParallelRows' stripes and keeps the panic of the
// first stripe, in stripe order, that panicked. One value holds both,
// so recording panics allocates nothing until a stripe panics.
type stripeGroup struct {
	wg    sync.WaitGroup
	first atomic.Pointer[stripePanic]
}

// stripePanic is what a stripe recovered, and which stripe it was.
type stripePanic struct {
	stripe int
	val    any
}

// run runs stripe k, rows [lo, hi), and records its panic unless a
// stripe before it has recorded one.
func (g *stripeGroup) run(k, lo, hi int, f func(lo, hi int)) {
	defer g.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			p := &stripePanic{stripe: k, val: v}
			for {
				cur := g.first.Load()
				if cur != nil && cur.stripe < k || g.first.CompareAndSwap(cur, p) {
					return
				}
			}
		}
	}()
	f(lo, hi)
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

// ReLUInto writes z into h with negative elements replaced by 0.
func ReLUInto(h, z *Matrix) {
	checkDst("ReLU", h, z.Rows, z.Cols)
	out := h.Data[:len(z.Data)]
	for i, v := range z.Data {
		out[i] = zeroIf(v < 0, v)
	}
}

// ReLUGradInPlace turns the gradient of a ReLUInto output into the
// gradient of its pre-activation z: grad[i] becomes 0 where z[i] <= 0.
func ReLUGradInPlace(grad, z *Matrix) {
	checkDst("ReLUGrad", grad, z.Rows, z.Cols)
	g := grad.Data[:len(z.Data)]
	for i, zv := range z.Data {
		g[i] = zeroIf(zv <= 0, g[i])
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
