package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// matrixStep is the reference SAGE.Step is pinned against: Algorithm 1
// through the materialized matrices, charged the way Step charges it.
func matrixStep(a *sparse.CSR, cur *Frontier, s int, seed int64) (*LayerSample, Cost) {
	sg := SAGE{}
	p, flops := sparse.SpGEMM(sg.BuildQ(cur, a.Cols), a)
	ls, cost := FinishStep(sg, p, cur, s, seed)
	cost.ProbFlops += flops
	cost.Kernels += 2 // Q construction, SpGEMM
	return ls, cost
}

// Rows of trickyGraph with a property the fixed datasets never have.
const (
	rowEmpty   = iota // no stored entries
	rowAllZero        // stored entries, every weight zero
	rowSkewed         // one entry holds nearly all mass: ITS exhausts maxTries
	rowLeadingZero
	trickyRows
)

// trickyGraph is a random weighted CSR on n ≥ 64 vertices: degrees on
// both sides of every fanout the tests use, non-unit weights, explicit
// zero weights, and the four special rows above.
func trickyGraph(n int, rng *rand.Rand) *sparse.CSR {
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for v := 0; v < n; v++ {
		deg := rng.Intn(13) // fanouts are 2..6: some rows below, some above
		switch v {
		case rowEmpty:
			deg = 0
		case rowAllZero, rowLeadingZero:
			deg = 12
		case rowSkewed:
			deg = 40
		}
		cols := rng.Perm(n)[:deg]
		sort.Ints(cols)
		for k, c := range cols {
			w := 0.25 + 4*rng.Float64()
			switch {
			case v == rowAllZero, v == rowLeadingZero && k == 0, v >= trickyRows && rng.Intn(8) == 0:
				w = 0
			case v == rowSkewed && k == 7:
				w = 1e15
			case v == rowSkewed:
				w = 1e-3
			}
			a.ColIdx = append(a.ColIdx, c)
			a.Val = append(a.Val, w)
		}
		a.RowPtr[v+1] = len(a.ColIdx)
	}
	return a
}

// trickyBatches draws k batches of b vertices; every batch leads with
// the special rows so each is sampled at every layer.
func trickyBatches(n, k, b int, rng *rand.Rand) [][]int {
	batches := make([][]int, k)
	for i := range batches {
		batch := []int{rowEmpty, rowAllZero, rowSkewed, rowLeadingZero}
		for len(batch) < b+trickyRows {
			batch = append(batch, rng.Intn(n))
		}
		batches[i] = batch
	}
	return batches
}

// diffLayer names the first field in which two layer samples differ.
func diffLayer(got, want *LayerSample) string {
	switch {
	case got.Adj.Rows != want.Adj.Rows || got.Adj.Cols != want.Adj.Cols:
		return fmt.Sprintf("Adj shape %dx%d, want %dx%d", got.Adj.Rows, got.Adj.Cols, want.Adj.Rows, want.Adj.Cols)
	case !slices.Equal(got.Adj.RowPtr, want.Adj.RowPtr):
		return "Adj.RowPtr"
	case !slices.Equal(got.Adj.ColIdx, want.Adj.ColIdx):
		return "Adj.ColIdx"
	case !sparse.Equal(got.Adj, want.Adj, 0):
		return "Adj.Val"
	case !slices.Equal(got.Rows.Vertices, want.Rows.Vertices) || !slices.Equal(got.Rows.BatchPtr, want.Rows.BatchPtr):
		return "Rows"
	case !slices.Equal(got.Cols.Vertices, want.Cols.Vertices):
		return "Cols.Vertices"
	case !slices.Equal(got.Cols.BatchPtr, want.Cols.BatchPtr):
		return "Cols.BatchPtr"
	}
	return ""
}

// countingRNG counts the variates a sampler draws.
type countingRNG struct {
	FloatRNG
	draws int
}

func (c *countingRNG) Float64() float64 { c.draws++; return c.FloatRNG.Float64() }

// The generator must really produce a row whose ITS loop gives up: more
// draws than maxTries means the exponential-key fallback ran.
func TestTrickyGraphSkewedRowExhaustsITS(t *testing.T) {
	a := trickyGraph(64, rand.New(rand.NewSource(1)))
	_, w := a.Row(rowSkewed)
	const s = 6
	rng := &countingRNG{FloatRNG: NewRowRNG(3, 0)}
	picks, _ := SampleRowITS(w, s, rng)
	if len(picks) != s || rng.draws <= 8*s+32 {
		t.Fatalf("skewed row: %d picks after %d draws; want %d picks and more than %d draws", len(picks), rng.draws, s, 8*s+32)
	}
}

// SAGE.Step — with the graph's table and as the zero value — equals
// BuildQ → SpGEMM → FinishStep field for field, layer by layer.
func TestSAGEStepEqualsMatrixPath(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(200)
		g := graph.New(trickyGraph(n, rng))
		samplers := map[string]SAGE{"table": {CDF: g.RowCDF()}, "zero value": {}}
		for _, k := range []int{1, 32} {
			batches := trickyBatches(n, k, 1+rng.Intn(6), rng)
			fanouts := []int{2 + rng.Intn(5), 2 + rng.Intn(5), 2 + rng.Intn(5)}
			for name, sg := range samplers {
				cur := NewFrontier(batches)
				for l, s := range fanouts {
					layerSeed := seed*31 + int64(l)*1e9
					want, wantCost := matrixStep(g.Adj, cur, s, layerSeed)
					got, gotCost := sg.Step(g.Adj, cur, s, layerSeed)
					if d := diffLayer(got, want); d != "" {
						t.Fatalf("seed %d k=%d %s layer %d (s=%d): %s differs", seed, k, name, l, s, d)
					}
					if gotCost != wantCost {
						t.Fatalf("seed %d k=%d %s layer %d (s=%d): cost %+v, want %+v", seed, k, name, l, s, gotCost, wantCost)
					}
					cur = want.Cols
				}
			}
		}
	}
}

// SAGE.FinishStep — the completion the 1.5D driver runs on its shared
// product — equals the normalize-in-place reference field for field,
// Cost included, and leaves P's bits as it found them.
func TestSAGEFinishStepEqualsReferenceAndKeepsP(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(200)
		a := trickyGraph(n, rng)
		cur := NewFrontier(trickyBatches(n, 1+rng.Intn(8), 1+rng.Intn(6), rng))
		for _, s := range []int{-1, 0, 2, 5} {
			p, _ := sparse.SpGEMM(SAGE{}.BuildQ(cur, n), a)
			orig := p.Clone()
			want, wantCost := FinishStep(SAGE{}, p.Clone(), cur, s, seed)
			got, gotCost := SAGE{}.FinishStep(p, cur, s, seed)
			if d := diffLayer(got, want); d != "" || gotCost != wantCost {
				t.Fatalf("seed %d s=%d: %s differs; cost %+v, want %+v", seed, s, d, gotCost, wantCost)
			}
			for k := range orig.Val {
				if math.Float64bits(p.Val[k]) != math.Float64bits(orig.Val[k]) {
					t.Fatalf("seed %d s=%d: FinishStep wrote P at entry %d", seed, s, k)
				}
			}
		}
	}
}

// A fanout of zero or less samples nothing and charges only the product.
func TestSAGEStepNonPositiveFanout(t *testing.T) {
	a := trickyGraph(64, rand.New(rand.NewSource(2)))
	cur := NewFrontier(trickyBatches(64, 2, 3, rand.New(rand.NewSource(3))))
	for _, s := range []int{0, -1} {
		want, wantCost := matrixStep(a, cur, s, 5)
		got, gotCost := SAGE{}.Step(a, cur, s, 5)
		if d := diffLayer(got, want); d != "" || gotCost != wantCost {
			t.Fatalf("s=%d: %s differs; cost %+v, want %+v", s, d, gotCost, wantCost)
		}
	}
}

// p goroutines sample off one table, each fetching it through the
// graph's once-only constructor; the race job covers the sharing.
func TestSAGETableConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, p = 200, 8
	g := graph.New(trickyGraph(n, rng))
	fanouts := []int{5, 3}
	batches := make([][][]int, p)
	want := make([]*BulkSample, p)
	for r := range batches {
		batches[r] = trickyBatches(n, 4, 4, rng)
		want[r] = SampleBulk(SAGE{}, g.Adj, batches[r], fanouts, int64(r))
	}
	got := make([]*BulkSample, p)
	tables := make([]*graph.RowCDF, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tables[r] = g.RowCDF()
			got[r] = SampleBulk(SAGE{CDF: tables[r]}, g.Adj, batches[r], fanouts, int64(r))
		}(r)
	}
	wg.Wait()
	for r := range got {
		if tables[r] != tables[0] {
			t.Fatalf("rank %d got its own table: the graph built more than one", r)
		}
		if got[r].Cost != want[r].Cost {
			t.Fatalf("rank %d: cost %+v, want %+v", r, got[r].Cost, want[r].Cost)
		}
		for l := range want[r].Layers {
			if d := diffLayer(got[r].Layers[l], want[r].Layers[l]); d != "" {
				t.Fatalf("rank %d layer %d: %s differs from the serial sample", r, l, d)
			}
		}
	}
}

// stepBytes is the heap Step allocates for one call.
func stepBytes(sg SAGE, a *sparse.CSR, cur *Frontier, s int) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sg.Step(a, cur, s, 1)
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// Step allocates its output — a few words per frontier row and per
// pick — not the Σ deg entries of P: quadrupling every degree leaves
// its bytes where they were.
func TestSAGEStepBytesFollowPicksNotDegrees(t *testing.T) {
	const n, rows, s = 4096, 512, 4
	regular := func(deg int) *graph.Graph {
		a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
		for v := 0; v < n; v++ {
			for k := 0; k < deg; k++ {
				a.ColIdx = append(a.ColIdx, k*(n/deg))
				a.Val = append(a.Val, 1)
			}
			a.RowPtr[v+1] = len(a.ColIdx)
		}
		return graph.New(a)
	}
	batch := make([]int, rows)
	for i := range batch {
		batch[i] = i * (n / rows)
	}
	cur := NewFrontier([][]int{batch})
	// rowPtr, picks, next frontier, ColIdx, Val: 8 bytes each per row or
	// pick; the RNG register and ITS scratch are a constant.
	const budget = 8*(2*rows+4*rows*s) + 32<<10
	for name, table := range map[string]bool{"table": true, "zero value": false} {
		var bytes [2]uint64
		for i, deg := range []int{256, 1024} {
			g := regular(deg)
			sg := SAGE{}
			if table {
				sg.CDF = g.RowCDF()
				sg.CDF.Of(g.Adj) // the first use builds the table: not Step's bytes
			}
			bytes[i] = stepBytes(sg, g.Adj, cur, s)
			if sigmaDeg := uint64(8 * rows * deg); bytes[i] > budget || bytes[i] > sigmaDeg/4 {
				t.Errorf("%s, deg %d: Step allocated %d B; budget %d B, P alone would be %d B", name, deg, bytes[i], budget, 2*sigmaDeg)
			}
		}
		if grow := int64(bytes[1]) - int64(bytes[0]); grow > 8*1024 { // the zero value's prefix scratch: one row
			t.Errorf("%s: 4× the degrees grew Step's bytes by %d", name, grow)
		}
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	fn()
}

// A frontier id outside the graph fails by name, before any kernel; a
// negative or NaN weight fails only when its row is prefix-summed.
func TestSAGEStepNamedFailures(t *testing.T) {
	const weightPanic = "core: negative or NaN sampling weight"
	// Vertex 0 has a bad weight among 4 entries; vertices 1..5 are sound.
	poisoned := func(bad float64) *graph.Graph {
		a := sparse.FromDense(6, 6, []float64{
			0, 1, bad, 1, 1, 0,
			1, 0, 1, 1, 1, 0,
			1, 1, 0, 1, 1, 0,
			1, 1, 1, 0, 1, 0,
			1, 1, 1, 1, 0, 0,
			1, 1, 1, 1, 0, 0,
		})
		return graph.New(a)
	}
	cases := []struct {
		name  string
		bad   float64
		batch []int
		s     int
		want  any // nil: no panic
	}{
		{"id below range", 1, []int{2, -1}, 2, "core: frontier vertex -1 outside graph of 6 vertices"},
		{"id above range", 1, []int{6}, 2, "core: frontier vertex 6 outside graph of 6 vertices"},
		{"negative weight, row sampled", -1, []int{1, 0}, 2, weightPanic},
		{"NaN weight, row sampled", math.NaN(), []int{0}, 3, weightPanic},
		{"negative weight, row taken whole", -1, []int{0, 1}, 4, nil},
		{"NaN weight, row not in the frontier", math.NaN(), []int{5, 5}, 2, nil},
	}
	for _, tc := range cases {
		g := poisoned(tc.bad)
		for name, sg := range map[string]SAGE{"table": {CDF: g.RowCDF()}, "zero value": {}} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				// One layer: a second would sample the poisoned row too.
				run := func() { SampleBulk(sg, g.Adj, [][]int{tc.batch}, []int{tc.s}, 7) }
				if tc.want == nil {
					run()
					return
				}
				mustPanic(t, tc.want.(string), run)
			})
		}
	}
}

// benchSAGEStep times SAGE.Step on the products/Bench analog with the
// graph's table, bulks of k minibatches at a time, all three layers.
func benchSAGEStep(b *testing.B, k int) {
	d := datasets.ProductsLike(datasets.Bench)
	batches := d.Batches()[:32]
	sg := SAGE{CDF: d.Graph.RowCDF()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(batches); lo += k {
			SampleBulk(sg, d.Graph.Adj, batches[lo:lo+k], d.Fanouts, int64(i))
		}
	}
}

// BenchmarkSAGEStepBulk is the replicated algorithm's call shape: one
// bulk of 32 minibatches.
func BenchmarkSAGEStepBulk(b *testing.B) { benchSAGEStep(b, 32) }

// BenchmarkSAGEStepPerBatch is the Quiver baseline's: the same 32
// minibatches, one k=1 call each.
func BenchmarkSAGEStepPerBatch(b *testing.B) { benchSAGEStep(b, 1) }
