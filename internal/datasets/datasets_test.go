package datasets

import (
	"testing"
)

func TestTinyPresetsLoad(t *testing.T) {
	for _, name := range Names() {
		d, err := ByName(name, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Graph.Adj.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Features.Rows != d.Graph.NumVertices() {
			t.Fatalf("%s: %d feature rows for %d vertices", name, d.Features.Rows, d.Graph.NumVertices())
		}
		if len(d.Labels) != d.Graph.NumVertices() {
			t.Fatalf("%s: label count mismatch", name)
		}
		if len(d.Train) == 0 || len(d.Test) == 0 {
			t.Fatalf("%s: empty split", name)
		}
		for _, v := range d.Train {
			if v < 0 || v >= d.Graph.NumVertices() {
				t.Fatalf("%s: train vertex %d out of range", name, v)
			}
		}
	}
}

func TestDensityOrderingPreserved(t *testing.T) {
	// Table 3 shape: Protein is densest, Papers is sparsest.
	products := ProductsLike(Tiny)
	protein := mustLoad("protein", Tiny)
	papers := PapersLike(Tiny)
	if !(protein.Graph.AvgDegree() > products.Graph.AvgDegree()) {
		t.Fatalf("protein (%.1f) not denser than products (%.1f)",
			protein.Graph.AvgDegree(), products.Graph.AvgDegree())
	}
	if !(products.Graph.AvgDegree() > papers.Graph.AvgDegree()) {
		t.Fatalf("products (%.1f) not denser than papers (%.1f)",
			products.Graph.AvgDegree(), papers.Graph.AvgDegree())
	}
}

func TestDatasetCached(t *testing.T) {
	a := ProductsLike(Tiny)
	b := ProductsLike(Tiny)
	if a != b {
		t.Fatal("dataset not cached")
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := ByName("nope", Tiny); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBatchesCoverTrainSet(t *testing.T) {
	d := ProductsLike(Tiny)
	bs := d.Batches()
	if len(bs) != d.NumBatches() {
		t.Fatalf("Batches()=%d, NumBatches()=%d", len(bs), d.NumBatches())
	}
	total := 0
	for _, b := range bs {
		total += len(b)
	}
	if total != len(d.Train) {
		t.Fatalf("batches cover %d of %d train vertices", total, len(d.Train))
	}
}

func TestSBMStructure(t *testing.T) {
	d := SBM(SBMConfig{
		N: 400, Classes: 4, Features: 8,
		IntraDeg: 8, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 1,
	})
	if err := d.Graph.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumClasses != 4 {
		t.Fatalf("classes = %d", d.NumClasses)
	}
	// Labels must be contiguous communities covering all classes.
	counts := make([]int, 4)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, cnt := range counts {
		if cnt == 0 {
			t.Fatalf("class %d empty", c)
		}
	}
	// Homophily: most edges must stay within a community.
	intra, total := 0, 0
	for u := 0; u < d.Graph.NumVertices(); u++ {
		cols, _ := d.Graph.Adj.Row(u)
		for _, v := range cols {
			total++
			if d.Labels[u] == d.Labels[v] {
				intra++
			}
		}
	}
	if float64(intra)/float64(total) < 0.55 {
		t.Fatalf("homophily %.2f too low", float64(intra)/float64(total))
	}
}

func TestSBMFeaturesCarrySignal(t *testing.T) {
	d := DefaultSBM()
	// Mean within-class feature distance must be smaller than
	// cross-class distance.
	distance := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			dd := a[i] - b[i]
			s += dd * dd
		}
		return s
	}
	var intra, inter float64
	var nIntra, nInter int
	for v := 0; v < 512; v++ {
		for u := v + 1; u < 512; u++ {
			dd := distance(d.Features.RowView(v), d.Features.RowView(u))
			if d.Labels[v] == d.Labels[u] {
				intra += dd
				nIntra++
			} else {
				inter += dd
				nInter++
			}
		}
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Fatal("within-class feature distance not smaller than cross-class")
	}
}

func TestSplitsDisjoint(t *testing.T) {
	d := DefaultSBM()
	seen := map[int]string{}
	for _, v := range d.Train {
		seen[v] = "train"
	}
	for _, v := range d.Val {
		if seen[v] != "" {
			t.Fatalf("vertex %d in train and val", v)
		}
		seen[v] = "val"
	}
	for _, v := range d.Test {
		if seen[v] != "" {
			t.Fatalf("vertex %d in %s and test", v, seen[v])
		}
	}
}
