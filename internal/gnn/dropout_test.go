package gnn

import (
	"math"
	"testing"

	"repro/internal/dense"
)

func TestDropoutGradientCheck(t *testing.T) {
	// With a fixed dropout seed, masks are deterministic, so the
	// analytic gradient must still match the numeric one.
	bg, _ := sampleBatch(t, 50, []int{1, 2}, []int{3, 2}, 31)
	m := NewModel(Config{In: 4, Hidden: 5, Classes: 3, Layers: 2, Seed: 10})
	m.SetDropout(0.3, 77)
	feats := dense.New(len(bg.InputVertices()), 4)
	for i := range feats.Data {
		feats.Data[i] = math.Sin(float64(i) * 0.7)
	}
	labels := []int{0, 1}

	act, _ := m.Forward(bg, feats)
	_, dLogits := Loss(act, labels)
	grads, _ := m.Backward(act, dLogits)

	params := m.Params()
	const eps = 1e-6
	for idx := 0; idx < len(params); idx += 13 {
		orig := params[idx]
		params[idx] = orig + eps
		a1, _ := m.Forward(bg, feats)
		lp, _ := Loss(a1, labels)
		params[idx] = orig - eps
		a2, _ := m.Forward(bg, feats)
		lm, _ := Loss(a2, labels)
		params[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grads[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dropout param %d: analytic %v vs numeric %v", idx, grads[idx], num)
		}
	}
}

func TestDropoutZerosFraction(t *testing.T) {
	mask := dense.New(100, 100)
	fillDropoutMask(mask, 0.4, 5, 0)
	zeros := 0
	for _, v := range mask.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-1/0.6) > 1e-12 {
			t.Fatalf("non-inverted mask value %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.35 || frac > 0.45 {
		t.Fatalf("dropout fraction %.3f, want ~0.4", frac)
	}
}

func TestDropoutSeedAdvances(t *testing.T) {
	a, b := dense.New(10, 10), dense.New(10, 10)
	fillDropoutMask(a, 0.5, 1, 0)
	fillDropoutMask(b, 0.5, 2, 0)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical masks")
	}
	m := NewModel(Config{In: 2, Hidden: 2, Classes: 2, Layers: 1, Seed: 1})
	m.SetDropout(0.5, 1)
	m.NextDropoutSeed()
	if m.dropSeed != 2 {
		t.Fatal("NextDropoutSeed did not advance")
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 1")
		}
	}()
	NewModel(Config{In: 2, Hidden: 2, Classes: 2, Layers: 1, Seed: 1}).SetDropout(1.0, 0)
}
