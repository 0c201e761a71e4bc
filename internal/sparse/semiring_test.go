package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestSemiringPlusTimesMatchesSpGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.3)
		b := randomCSR(rng, a.Cols, 1+rng.Intn(12), 0.3)
		want, _ := SpGEMM(a, b)
		got, _ := SpGEMMSemiring(a, b, PlusTimes)
		// The semiring version drops explicit zeros that the arithmetic
		// kernel may keep (cancellation); compare dense forms.
		wd, gd := want.ToDense(), got.ToDense()
		for i := range wd {
			if math.Abs(wd[i]-gd[i]) > 1e-9 {
				t.Fatalf("trial %d: plus-times disagrees at %d", trial, i)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSemiringOrAndReachability(t *testing.T) {
	// A path graph 0->1->2->3: A^2 under or-and marks 2-hop pairs.
	a := FromEntries(4, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	a2, _ := SpGEMMSemiring(a, a, OrAnd)
	if a2.At(0, 2) != 1 || a2.At(1, 3) != 1 {
		t.Fatalf("2-hop reachability missing: %v", a2.ToDense())
	}
	if a2.NNZ() != 2 {
		t.Fatalf("spurious reachability: %v", a2.ToDense())
	}
}

func TestSemiringMinPlusShortestPaths(t *testing.T) {
	// Weighted triangle: 0->1 (5), 1->2 (3), 0->2 (10).
	// Min-plus A^2 must find the 2-hop path 0->2 of length 8.
	a := FromEntries(3, 3, [][3]float64{{0, 1, 5}, {1, 2, 3}, {0, 2, 10}})
	a2, _ := SpGEMMSemiring(a, a, MinPlus)
	if a2.At(0, 2) != 8 {
		t.Fatalf("min-plus 0->2 = %v, want 8", a2.At(0, 2))
	}
}

func TestSemiringMaxMinBottleneck(t *testing.T) {
	// Capacities: 0->1 (4), 1->2 (7). Widest 2-hop path 0->2 = min(4,7) = 4.
	a := FromEntries(3, 3, [][3]float64{{0, 1, 4}, {1, 2, 7}})
	a2, _ := SpGEMMSemiring(a, a, MaxMin)
	if a2.At(0, 2) != 4 {
		t.Fatalf("max-min 0->2 = %v, want 4", a2.At(0, 2))
	}
}

func TestSpMVSemiringBFSFrontier(t *testing.T) {
	// One or-and SpMV from a source vector gives the in-neighbors of
	// the frontier (A rows list aggregation sources).
	a := exampleGraph()
	x := make([]float64, 6)
	x[1] = 1 // frontier = {1}
	y := SpMVSemiring(a, x, OrAnd)
	// Rows with an edge into column 1: vertices 0, 2, 4.
	for i, v := range y {
		wantSet := i == 0 || i == 2 || i == 4
		if (v == 1) != wantSet {
			t.Fatalf("BFS frontier wrong at %d: %v", i, y)
		}
	}
}

func TestSpMVSemiringMinPlusRelaxation(t *testing.T) {
	// dist' = A min-plus dist performs one relaxation step.
	a := FromEntries(3, 3, [][3]float64{{1, 0, 5}, {2, 1, 3}})
	dist := []float64{0, math.Inf(1), math.Inf(1)}
	d1 := SpMVSemiring(a, dist, MinPlus)
	if d1[1] != 5 {
		t.Fatalf("one-step distance to 1 = %v, want 5", d1[1])
	}
	if !math.IsInf(d1[2], 1) {
		t.Fatalf("vertex 2 reachable too early: %v", d1[2])
	}
}

func TestSemiringDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpGEMMSemiring(Zero(2, 3), Zero(4, 2), OrAnd)
}

func TestSemiringZeroDropping(t *testing.T) {
	// Min-plus: unreachable entries (Zero = +Inf) must not be stored.
	a := FromEntries(2, 2, [][3]float64{{0, 1, 2}})
	prod, _ := SpGEMMSemiring(a, a, MinPlus)
	if prod.NNZ() != 0 {
		t.Fatalf("stored unreachable entries: %v", prod.ToDense())
	}
}

// MaxMin is the bottleneck (max-min) semiring: widest-path capacities.
var MaxMin = Semiring{
	Name: "max-min",
	Add:  math.Max,
	Mul:  math.Min,
	Zero: math.Inf(-1),
}
