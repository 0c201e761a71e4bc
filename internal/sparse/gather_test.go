package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The kernels copy a row instead of accumulating it when only one term
// can reach each output entry: SpGEMM and Scratch.SpGEMM for a left row
// with one entry. The reference below accumulates every row through a
// dense accumulator, as the kernels did before, and the tests hold the
// kernels to it bit for bit.

// refSpGEMM is Gustavson's algorithm with a dense accumulator on every
// row, and its flop count: one multiply-add per (A entry, B row entry).
func refSpGEMM(a, b *CSR) (*CSR, int64) {
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	val := make([]float64, b.Cols)
	present := make([]bool, b.Cols)
	var flops int64
	for i := 0; i < a.Rows; i++ {
		var touched []int
		acols, avals := a.Row(i)
		for k := range acols {
			bcols, bvals := b.Row(acols[k])
			for t, j := range bcols {
				if !present[j] {
					present[j] = true
					touched = append(touched, j)
				}
				val[j] += float64(avals[k] * bvals[t])
				flops++
			}
		}
		out.ColIdx, out.Val = drainRef(out.ColIdx, out.Val, touched, val, present)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out, flops
}

func drainRef(cols []int, vals []float64, touched []int, val []float64, present []bool) ([]int, []float64) {
	sort.Ints(touched)
	for _, j := range touched {
		cols = append(cols, j)
		vals = append(vals, val[j])
		val[j], present[j] = 0, false
	}
	return cols, vals
}

// edgeValue draws a stored value: −0, +0, subnormals of either sign
// (whose products underflow to signed zeros), 1, or a random weight.
func edgeValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return 5e-324 * float64(1+rng.Intn(1000))
	case 3:
		return -4.9e-320
	case 4:
		return 1
	default:
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
	}
}

// edgeRow draws n distinct sorted columns in [0, cols) with edge values.
func edgeRow(rng *rand.Rand, n, cols int) ([]int, []float64) {
	cs := rng.Perm(cols)[:min(n, cols)]
	sort.Ints(cs)
	vs := make([]float64, len(cs))
	for k := range vs {
		vs[k] = edgeValue(rng)
	}
	return cs, vs
}

// mixedCSR draws a matrix whose rows hold 0, 1 (most often) or several
// entries — a GraphSAGE Q's one-hot rows next to a LADIES Q's wide ones.
func mixedCSR(rng *rand.Rand, rows, cols int) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		n := [...]int{0, 1, 1, 1, 2, 3, 7}[rng.Intn(7)]
		cs, vs := edgeRow(rng, n, cols)
		m.ColIdx = append(m.ColIdx, cs...)
		m.Val = append(m.Val, vs...)
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// sameBits reports the first difference between two matrices, values
// compared by their bits (so −0 ≠ +0).
func sameBits(got, want *CSR) error {
	switch {
	case got.Rows != want.Rows || got.Cols != want.Cols:
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	case !slices.Equal(got.RowPtr[:got.Rows+1], want.RowPtr):
		return fmt.Errorf("RowPtr differs")
	case !slices.Equal(got.ColIdx[:got.NNZ()], want.ColIdx):
		return fmt.Errorf("ColIdx differs")
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			return fmt.Errorf("Val[%d] = %v (%#x), want %v (%#x)", k, got.Val[k], math.Float64bits(got.Val[k]), v, math.Float64bits(v))
		}
	}
	return nil
}

func TestProductKernelsMatchAccumulatorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var sc Scratch // warm across trials: reuse must not change a bit
	var out CSR
	for trial := 0; trial < 300; trial++ {
		m, k, n := rng.Intn(40), 1+rng.Intn(30), 1+rng.Intn(30)
		a, b := mixedCSR(rng, m, k), mixedCSR(rng, k, n)
		want, wantFlops := refSpGEMM(a, b)
		got, flops := SpGEMM(a, b)
		if err := sameBits(got, want); err != nil || flops != wantFlops {
			t.Fatalf("trial %d SpGEMM: %v; flops %d, want %d", trial, err, flops, wantFlops)
		}
		got, flops = sc.SpGEMM(&out, a, b)
		if err := sameBits(got, want); err != nil || flops != wantFlops {
			t.Fatalf("trial %d Scratch.SpGEMM: %v; flops %d, want %d", trial, err, flops, wantFlops)
		}
	}
}

// blockReader holds B in two row blocks, as a driver holding B in
// pieces does, and reads its rows from them.
type blockReader struct{ top, bottom *CSR }

func (r blockReader) at(i int) (*CSR, int) {
	if i < r.top.Rows {
		return r.top, i
	}
	return r.bottom, i - r.top.Rows
}

func (r blockReader) Row(i int) ([]int, []float64) { m, j := r.at(i); return m.Row(j) }
func (r blockReader) RowNNZ(i int) int             { m, j := r.at(i); return m.RowNNZ(j) }
func (r blockReader) Dims() (int, int)             { return r.top.Rows + r.bottom.Rows, r.top.Cols }

// Scratch.SpGEMM reading B through a RowReader that holds it in pieces
// gives SpGEMM's product and flop count bit for bit, and checks the
// reader's shape against A's.
func TestSpGEMMReadsBThroughARowReader(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var sc Scratch
	var out CSR
	for trial := 0; trial < 100; trial++ {
		m, k, n := rng.Intn(40), 1+rng.Intn(30), 1+rng.Intn(30)
		a, b := mixedCSR(rng, m, k), mixedCSR(rng, k, n)
		split := rng.Intn(k + 1)
		want, wantFlops := SpGEMM(a, b)
		got, flops := sc.SpGEMM(&out, a, blockReader{SliceRows(b, 0, split), SliceRows(b, split, k)})
		if err := sameBits(got, want); err != nil || flops != wantFlops {
			t.Fatalf("trial %d: %v; flops %d, want %d", trial, err, flops, wantFlops)
		}
	}
	defer func() {
		if rec := recover(); rec == nil || !strings.Contains(fmt.Sprint(rec), "dimension mismatch") {
			t.Fatalf("a 2x3 A times a 2-row reader: recovered %v, want a dimension mismatch", rec)
		}
	}()
	sc.SpGEMM(&out, Zero(2, 3), blockReader{Zero(1, 4), Zero(1, 4)})
}

// The copied rows really are exercised on signed zeros: a one-entry row
// whose products are −0 comes out +0, as the accumulator makes it.
func TestCopiedRowsWriteAccumulatorZeros(t *testing.T) {
	a := &CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 1}, ColIdx: []int{0}, Val: []float64{-1}}
	b := &CSR{Rows: 1, Cols: 3, RowPtr: []int{0, 3}, ColIdx: []int{0, 1, 2}, Val: []float64{0, 5e-324, 2}}
	var sc Scratch
	for name, got := range map[string]*CSR{
		"SpGEMM":         first(SpGEMM(a, b)),
		"Scratch.SpGEMM": first(sc.SpGEMM(new(CSR), a, b)),
	} {
		for k, v := range got.Val {
			if v == 0 && math.Signbit(v) {
				t.Errorf("%s: Val[%d] is −0; the accumulator writes 0 + v = +0", name, k)
			}
		}
	}
}

func first(m *CSR, _ int64) *CSR { return m }
