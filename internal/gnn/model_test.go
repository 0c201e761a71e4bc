package gnn

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

func sampleBatch(t *testing.T, n int, seeds []int, fanouts []int, seed int64) (*core.BatchGraph, *graph.Graph) {
	t.Helper()
	g := graph.EnsureMinOutDegree(graph.ErdosRenyi(n, 8, seed), 4, seed+1)
	bulk := core.SampleBulk(core.SAGE{}, g.Adj, [][]int{seeds}, fanouts, seed+2)
	if err := bulk.Validate(n); err != nil {
		t.Fatal(err)
	}
	return bulk.ExtractBatch(0), g
}

func TestExtractBatchLocalColumns(t *testing.T) {
	g := graph.EnsureMinOutDegree(graph.ErdosRenyi(60, 8, 1), 4, 2)
	bulk := core.SampleBulk(core.SAGE{}, g.Adj, [][]int{{0, 1}, {2, 3}}, []int{3, 2}, 5)
	for b := 0; b < 2; b++ {
		bg := bulk.ExtractBatch(b)
		if len(bg.Seeds) != 2 || bg.Depth() != 2 {
			t.Fatalf("batch %d shape wrong", b)
		}
		for l, adj := range bg.Adjs {
			if err := adj.Validate(); err != nil {
				t.Fatalf("batch %d layer %d: %v", b, l, err)
			}
			if adj.Rows != len(bg.Frontiers[l]) || adj.Cols != len(bg.Frontiers[l+1]) {
				t.Fatalf("batch %d layer %d: adj %dx%d vs frontiers %d/%d",
					b, l, adj.Rows, adj.Cols, len(bg.Frontiers[l]), len(bg.Frontiers[l+1]))
			}
			// Sampled edges must exist in the graph under the local
			// to global mapping.
			for i := 0; i < adj.Rows; i++ {
				cols, _ := adj.Row(i)
				u := bg.Frontiers[l][i]
				for _, c := range cols {
					v := bg.Frontiers[l+1][c]
					if g.Adj.At(u, v) == 0 {
						t.Fatalf("batch %d layer %d: edge (%d,%d) not in graph", b, l, u, v)
					}
				}
			}
		}
	}
}

func TestForwardShapes(t *testing.T) {
	bg, _ := sampleBatch(t, 80, []int{1, 2, 3}, []int{4, 3}, 7)
	m := NewModel(Config{In: 6, Hidden: 8, Classes: 5, Layers: 2, Seed: 1})
	feats := dense.New(len(bg.InputVertices()), 6)
	for i := range feats.Data {
		feats.Data[i] = float64(i%7) * 0.1
	}
	act, flops := m.Forward(bg, feats)
	if act.Logits.Rows != 3 || act.Logits.Cols != 5 {
		t.Fatalf("logits %dx%d, want 3x5", act.Logits.Rows, act.Logits.Cols)
	}
	if flops <= 0 {
		t.Fatal("forward flops not counted")
	}
}

func TestBackwardMatchesNumericalGradient(t *testing.T) {
	bg, _ := sampleBatch(t, 50, []int{1, 2}, []int{3, 2}, 11)
	m := NewModel(Config{In: 4, Hidden: 5, Classes: 3, Layers: 2, Seed: 2})
	feats := dense.New(len(bg.InputVertices()), 4)
	for i := range feats.Data {
		feats.Data[i] = math.Sin(float64(i))
	}
	labels := []int{0, 2}

	lossAt := func() float64 {
		act, _ := m.Forward(bg, feats)
		l, _ := Loss(act, labels)
		return l
	}
	act, _ := m.Forward(bg, feats)
	_, dLogits := Loss(act, labels)
	grads, _ := m.Backward(act, dLogits)

	params := m.Params()
	const eps = 1e-6
	// Check a spread of parameters incl. first, last, and every 7th.
	for idx := 0; idx < len(params); idx += 7 {
		orig := params[idx]
		params[idx] = orig + eps
		lp := lossAt()
		params[idx] = orig - eps
		lm := lossAt()
		params[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grads[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d: analytic %v vs numeric %v", idx, grads[idx], num)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m := NewModel(Config{In: 3, Hidden: 4, Classes: 2, Layers: 1, Seed: 3})
	p := append([]float64(nil), m.Params()...)
	for i := range p {
		p[i] = float64(i)
	}
	m.SetParams(p)
	if m.Params()[5] != 5 {
		t.Fatal("SetParams did not apply")
	}
	if m.layers[0].WSelf.Data[0] != 0 || m.wOut.Data[0] == 0 {
		// views must alias the flat buffer
		t.Log("views:", m.layers[0].WSelf.Data[0], m.wOut.Data[0])
	}
}

func TestNumParamsMatchesLayout(t *testing.T) {
	cfg := Config{In: 10, Hidden: 16, Classes: 7, Layers: 3, Seed: 4}
	m := NewModel(cfg)
	want := (10*16+16*16+16*16)*2 + 16*7 + 7
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
}

func TestTrainingReducesLossOnSBM(t *testing.T) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 600, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.4,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 5,
	})
	m := NewModel(Config{In: 8, Hidden: 16, Classes: 4, Layers: 2, Seed: 6})
	opt := dense.NewAdam(0.01)
	batches := d.Batches()

	var first, last float64
	for epoch := 0; epoch < 5; epoch++ {
		bulk := core.SampleBulk(core.SAGE{}, d.Graph.Adj, batches, d.Fanouts, int64(100+epoch))
		total := 0.0
		for i := range batches {
			bg := bulk.ExtractBatch(i)
			feats := GatherFeatures(d.Features, bg.InputVertices())
			act, _ := m.Forward(bg, feats)
			labels := make([]int, len(bg.Seeds))
			for j, v := range bg.Seeds {
				labels[j] = d.Labels[v]
			}
			loss, dLogits := Loss(act, labels)
			grads, _ := m.Backward(act, dLogits)
			opt.Step(m.Params(), grads)
			total += loss
		}
		avg := total / float64(len(batches))
		if epoch == 0 {
			first = avg
		}
		last = avg
	}
	if last >= first*0.8 {
		t.Fatalf("loss did not drop: first %.4f last %.4f", first, last)
	}
}

func TestGatherFeatures(t *testing.T) {
	f := dense.FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	g := GatherFeatures(f, []int{2, 0, 2})
	want := []float64{5, 6, 1, 2, 5, 6}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("gather = %v, want %v", g.Data, want)
		}
	}
}

func TestNormalizeAdjMean(t *testing.T) {
	adj := sparse.FromEntries(2, 3, [][3]float64{{0, 0, 1}, {0, 2, 1}, {1, 1, 1}})
	norm := normalizeAdj(adj, &workspace{})
	if norm.At(0, 0) != 0.5 || norm.At(0, 2) != 0.5 || norm.At(1, 1) != 1 {
		t.Fatalf("mean normalization wrong: rowptr %v cols %v vals %v", norm.RowPtr, norm.ColIdx, norm.Val)
	}
	// Original must be untouched.
	if adj.At(0, 0) != 1 {
		t.Fatal("normalizeAdj mutated input")
	}
}
