package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleRowITSCountAndDistinctness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nnz := 1 + rng.Intn(40)
		s := 1 + rng.Intn(20)
		w := make([]float64, nnz)
		for i := range w {
			w[i] = rng.Float64() + 0.01
		}
		picks, _ := SampleRowITS(w, s, rng)
		want := s
		if nnz < s {
			want = nnz
		}
		if len(picks) != want {
			t.Fatalf("trial %d: got %d picks, want %d (nnz=%d s=%d)", trial, len(picks), want, nnz, s)
		}
		seen := map[int]struct{}{}
		prev := -1
		for _, p := range picks {
			if p < 0 || p >= nnz {
				t.Fatalf("pick %d out of range", p)
			}
			if _, dup := seen[p]; dup {
				t.Fatalf("duplicate pick %d", p)
			}
			if p <= prev {
				t.Fatalf("picks not sorted: %v", picks)
			}
			seen[p] = struct{}{}
			prev = p
		}
	}
}

func TestSampleRowITSTakesAllWhenFewer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	picks, _ := SampleRowITS([]float64{1, 2, 3}, 10, rng)
	if len(picks) != 3 || picks[0] != 0 || picks[2] != 2 {
		t.Fatalf("picks = %v, want all three", picks)
	}
}

func TestSampleRowITSSkipsZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := []float64{0, 5, 0, 5, 0, 5, 0, 5}
	for trial := 0; trial < 100; trial++ {
		picks, _ := SampleRowITS(w, 3, rng)
		for _, p := range picks {
			if w[p] == 0 {
				t.Fatalf("sampled zero-weight index %d", p)
			}
		}
	}
}

func TestSampleRowITSEmptyAndZeroCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if picks, _ := SampleRowITS(nil, 3, rng); picks != nil {
		t.Fatal("empty row should sample nothing")
	}
	if picks, _ := SampleRowITS([]float64{1, 2}, 0, rng); picks != nil {
		t.Fatal("s=0 should sample nothing")
	}
	if picks, _ := SampleRowITS([]float64{0, 0, 0, 0, 0}, 2, rng); len(picks) != 0 {
		t.Fatalf("all-zero weights sampled %v", picks)
	}
}

func TestSampleRowITSDistributionMatchesWeights(t *testing.T) {
	// With weights (1, 2, 7) and s=1, the empirical frequencies must
	// approach 0.1, 0.2, 0.7.
	rng := rand.New(rand.NewSource(5))
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const trials = 20000
	for i := 0; i < trials; i++ {
		picks, _ := SampleRowITS(w, 1, rng)
		counts[picks[0]]++
	}
	wantFreq := []float64{0.1, 0.2, 0.7}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-wantFreq[i]) > 0.02 {
			t.Fatalf("index %d frequency %v, want ~%v", i, got, wantFreq[i])
		}
	}
}

func TestSampleRowITSSkewedWeightFallback(t *testing.T) {
	// One entry holds ~all mass: ITS redraws would collide endlessly,
	// so the exponential-key fallback must complete the sample.
	rng := rand.New(rand.NewSource(6))
	w := make([]float64, 50)
	for i := range w {
		w[i] = 1e-12
	}
	w[7] = 1e6
	picks, _ := SampleRowITS(w, 10, rng)
	if len(picks) != 10 {
		t.Fatalf("got %d picks, want 10", len(picks))
	}
	found := false
	for _, p := range picks {
		if p == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("dominant-mass index not sampled")
	}
}

func TestSampleRowITSWithoutReplacementFrequencies(t *testing.T) {
	// Sampling 2 of 3 without replacement with weights (1,1,2): the
	// heavy index must appear most often but not always.
	rng := rand.New(rand.NewSource(7))
	w := []float64{1, 1, 2}
	counts := make([]int, 3)
	const trials = 10000
	for i := 0; i < trials; i++ {
		picks, _ := SampleRowITS(w, 2, rng)
		for _, p := range picks {
			counts[p]++
		}
	}
	if counts[2] <= counts[0] || counts[2] <= counts[1] {
		t.Fatalf("heavy index underrepresented: %v", counts)
	}
	if counts[2] >= trials {
		t.Fatalf("heavy index always sampled: %v", counts)
	}
}

func TestRowSeedDeterministicAndSpread(t *testing.T) {
	if rowSeed(42, 7) != rowSeed(42, 7) {
		t.Fatal("rowSeed not deterministic")
	}
	seen := map[int64]struct{}{}
	for i := 0; i < 1000; i++ {
		seen[rowSeed(42, i)] = struct{}{}
	}
	if len(seen) != 1000 {
		t.Fatalf("rowSeed collisions: %d distinct of 1000", len(seen))
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative weight")
		}
	}()
	SampleRowITS([]float64{1, -1}, 1, rand.New(rand.NewSource(8)))
}

func TestSampleRowITSOpsPositive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, 10)
		for i := range w {
			w[i] = rng.Float64() + 0.1
		}
		_, ops := SampleRowITS(w, 3, rng)
		return ops > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
