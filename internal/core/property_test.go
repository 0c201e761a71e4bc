package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// randomScenario builds a random graph and random batches from a quick
// seed.
func randomScenario(seed int64) (adj *randGraphAdj, batches [][]int, fanouts []int) {
	rng := rand.New(rand.NewSource(seed))
	n := 30 + rng.Intn(120)
	deg := 4 + rng.Float64()*8
	g := graph.EnsureMinOutDegree(graph.ErdosRenyi(n, deg, seed), 3, seed+1)
	k := 1 + rng.Intn(4)
	b := 1 + rng.Intn(6)
	batches = make([][]int, k)
	for i := range batches {
		batch := make([]int, b)
		for j := range batch {
			batch[j] = rng.Intn(n)
		}
		batches[i] = batch
	}
	layers := 1 + rng.Intn(2)
	fanouts = make([]int, layers)
	for i := range fanouts {
		fanouts[i] = 2 + rng.Intn(4)
	}
	return &randGraphAdj{g: g}, batches, fanouts
}

type randGraphAdj struct{ g *graph.Graph }

func TestPropertySAGEStructuralInvariants(t *testing.T) {
	check := func(seed int64) bool {
		adj, batches, fanouts := randomScenario(seed)
		bs := SampleBulk(SAGE{}, adj.g.Adj, batches, fanouts, seed)
		if bs.Validate(adj.g.NumVertices()) != nil {
			return false
		}
		// Every sampled edge exists; no row oversamples its fanout.
		for li, ls := range bs.Layers {
			for i := 0; i < ls.Adj.Rows; i++ {
				if ls.Adj.RowNNZ(i) > fanouts[li] {
					return false
				}
				u := ls.Rows.Vertices[i]
				cols, _ := ls.Adj.Row(i)
				for _, c := range cols {
					if adj.g.Adj.At(u, ls.Cols.Vertices[c]) == 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLADIESStructuralInvariants(t *testing.T) {
	check := func(seed int64) bool {
		adj, batches, fanouts := randomScenario(seed)
		bs := SampleBulk(LADIES{}, adj.g.Adj, batches, fanouts, seed)
		if bs.Validate(adj.g.NumVertices()) != nil {
			return false
		}
		for li, ls := range bs.Layers {
			// Per batch: sampled set size bounded by s and distinct.
			for b := 0; b < ls.Rows.K(); b++ {
				rb, cb := ls.Rows.Batch(b), ls.Cols.Batch(b)
				sampled := cb[len(rb):]
				if len(sampled) > fanouts[li] {
					return false
				}
				seen := map[int]struct{}{}
				for _, v := range sampled {
					if _, dup := seen[v]; dup {
						return false
					}
					seen[v] = struct{}{}
				}
			}
			// Sampled edges all exist in the graph.
			for i := 0; i < ls.Adj.Rows; i++ {
				u := ls.Rows.Vertices[i]
				cols, _ := ls.Adj.Row(i)
				for _, c := range cols {
					if adj.g.Adj.At(u, ls.Cols.Vertices[c]) == 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFastGCNStructuralInvariants(t *testing.T) {
	check := func(seed int64) bool {
		adj, batches, fanouts := randomScenario(seed)
		bs := SampleBulk(FastGCN{}, adj.g.Adj, batches, fanouts, seed)
		return bs.Validate(adj.g.NumVertices()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyExtractBatchPartitionsBulk(t *testing.T) {
	// The per-batch extraction must partition the bulk: total edges
	// across extracted batches equals the bulk adjacency edge count,
	// layer by layer.
	check := func(seed int64) bool {
		adj, batches, fanouts := randomScenario(seed)
		bs := SampleBulk(SAGE{}, adj.g.Adj, batches, fanouts, seed)
		for li := range bs.Layers {
			total := 0
			for b := range batches {
				bg := bs.ExtractBatch(b)
				total += bg.Adjs[li].NNZ()
			}
			if total != bs.Layers[li].Adj.NNZ() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractBatchSharesNoStorage: ExtractBatch copies what it hands
// on, so writing every entry of every batch's adjacencies leaves the
// bulk sample's layers bit for bit as they were — the c members of a
// 1.5D process row extract their batches from one shared layer.
func TestExtractBatchSharesNoStorage(t *testing.T) {
	adj, batches, fanouts := randomScenario(7)
	bs := SampleBulk(SAGE{}, adj.g.Adj, batches, fanouts, 7)
	want := make([]*sparse.CSR, len(bs.Layers))
	for l, ls := range bs.Layers {
		want[l] = ls.Adj.Clone()
	}
	written := 0
	for b := range batches {
		for _, a := range bs.ExtractBatch(b).Adjs {
			for k := range a.ColIdx {
				a.ColIdx[k], a.Val[k] = -1, math.NaN()
				written++
			}
		}
	}
	if written == 0 {
		t.Fatal("no batch held an entry")
	}
	for l, ls := range bs.Layers {
		if !sparse.Equal(ls.Adj, want[l]) {
			t.Fatalf("layer %d changed when its batches were written", l)
		}
	}
}

func TestPropertyBulkFrontierSizesAdditive(t *testing.T) {
	// The stacked frontier is exactly the concatenation of per-batch
	// frontiers: lengths add up and batch pointers are consistent.
	check := func(seed int64) bool {
		adj, batches, fanouts := randomScenario(seed)
		bs := SampleBulk(SAGE{}, adj.g.Adj, batches, fanouts, seed)
		for _, ls := range bs.Layers {
			sum := 0
			for b := 0; b < ls.Cols.K(); b++ {
				sum += len(ls.Cols.Batch(b))
			}
			if sum != ls.Cols.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
