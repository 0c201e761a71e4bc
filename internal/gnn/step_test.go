package gnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
)

// stepFixture is one fixed SBM minibatch with its features, and the
// dataset's labels by vertex.
func stepFixture() (*core.BatchGraph, *dense.Matrix, []int) {
	d := datasets.SBM(datasets.SBMConfig{
		N: 600, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.4,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 5,
	})
	bulk := core.SampleBulk(core.SAGE{}, d.Graph.Adj, d.Batches()[:1], d.Fanouts, 100)
	bg := bulk.ExtractBatch(0)
	return bg, GatherFeatures(d.Features, bg.InputVertices()), d.Labels
}

func stepModel(dropout float64) *Model {
	m := NewModel(Config{In: 8, Hidden: 16, Classes: 4, Layers: 2, Seed: 6})
	m.SetDropout(dropout, 42)
	return m
}

func gradHash(grads []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range grads {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(g))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestStepPinned holds one training step to the flop counts, loss bits
// and gradient bits captured at commit 265e7ac, before the kernels
// under it were rewritten: whatever the host computes or skips, the
// step returns what the matrix algorithm returns and charges what it
// performs.
func TestStepPinned(t *testing.T) {
	bg, feats, labels := stepFixture()
	for _, pin := range []struct {
		dropout  float64
		fwd, bwd int64
		lossBits uint64
		gradFNV  uint64
	}{
		{0, 74752, 149504, 0x3ff73c20b6c97128, 0xe9844c0946173d4d},
		{0.5, 74752, 149504, 0x3ffccc4543589046, 0x6c09fa00e0561255},
	} {
		m := stepModel(pin.dropout)
		// Twice: the second step runs in the first one's recycled memory
		// and writes its gradient over a buffer of garbage.
		dirty := make([]float64, m.NumParams())
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		for step := 0; step < 2; step++ {
			act, fwd := m.Forward(bg, feats)
			loss, dLogits := Loss(act, act.SeedLabels(labels))
			var grads []float64
			var bwd int64
			if step == 0 {
				grads, bwd = m.Backward(act, dLogits)
			} else {
				grads, bwd = dirty, m.BackwardInto(act, dLogits, dirty)
			}
			if fwd != pin.fwd || bwd != pin.bwd {
				t.Errorf("dropout %v step %d: flops %d/%d, want %d/%d",
					pin.dropout, step, fwd, bwd, pin.fwd, pin.bwd)
			}
			if got := math.Float64bits(loss); got != pin.lossBits {
				t.Errorf("dropout %v step %d: loss bits %#x, want %#x", pin.dropout, step, got, pin.lossBits)
			}
			if got := gradHash(grads); got != pin.gradFNV {
				t.Errorf("dropout %v step %d: gradient FNV-1a %#x, want %#x", pin.dropout, step, got, pin.gradFNV)
			}
		}
	}
}

// The evaluation path calls Forward and never Backward, so two live
// Activations of one model must not share a workspace.
func TestLiveActivationsShareNoStorage(t *testing.T) {
	bg, feats, _ := stepFixture()
	m := stepModel(0.5)
	// Warm the free list so both forwards below could be handed the
	// same recycled workspace if the list did not remove it.
	act, _ := m.Forward(bg, feats)
	m.Backward(act, dense.New(act.Logits.Rows, act.Logits.Cols))

	a, _ := m.Forward(bg, feats)
	want := append([]float64(nil), a.Logits.Data...)
	b, _ := m.Forward(bg, feats)
	if a.ws == b.ws {
		t.Fatal("two live Activations hold the same workspace")
	}
	for _, x := range []*dense.Matrix{b.Logits, b.hTop, b.layers[0].z, b.layers[0].agg, b.layers[0].mask, b.layers[1].h} {
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
	}
	for i, v := range a.Logits.Data {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("logits[%d] of the first Activations changed when the second was overwritten", i)
		}
	}
}

// Step memory outlives the model: every pipeline.Run builds its own
// model, and a run's allocations must not depend on how many steps an
// earlier run had in flight. A fresh model's first step allocates what a
// warm model's step does.
func TestFreshModelReusesStepMemory(t *testing.T) {
	bg, feats, labels := stepFixture()
	step := func(m *Model) {
		act, _ := m.Forward(bg, feats)
		_, dLogits := Loss(act, act.SeedLabels(labels))
		m.Backward(act, dLogits)
	}
	warm := stepModel(0.5)
	step(warm)
	warmStep := testing.AllocsPerRun(10, func() { step(warm) })
	build := testing.AllocsPerRun(10, func() { stepModel(0.5) })
	freshStep := testing.AllocsPerRun(10, func() { step(stepModel(0.5)) }) - build
	if freshStep != warmStep {
		t.Fatalf("a fresh model's step made %v allocations, a warm model's %v", freshStep, warmStep)
	}
}

// A step that writes its gradient into the caller's buffer allocates
// nothing for it: a warm step allocates exactly one allocation and the
// gradient's bytes less than one that returns a fresh gradient.
func TestBackwardIntoAllocatesNoGradient(t *testing.T) {
	bg, feats, labels := stepFixture()
	m := stepModel(0.5)
	grads := make([]float64, m.NumParams())
	step := func(into bool) {
		act, _ := m.Forward(bg, feats)
		_, dLogits := Loss(act, act.SeedLabels(labels))
		if into {
			m.BackwardInto(act, dLogits, grads)
		} else {
			m.Backward(act, dLogits)
		}
	}
	cost := func(into bool) (allocs, bytes uint64) {
		step(into)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			step(into)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / 10, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	intoAllocs, intoBytes := cost(true)
	freshAllocs, freshBytes := cost(false)
	if gradBytes := uint64(8 * m.NumParams()); freshAllocs-intoAllocs != 1 || freshBytes-intoBytes < gradBytes {
		t.Fatalf("step into a caller's buffer: %d allocations, %d B; with a fresh gradient: %d, %d B (gradient %d B)",
			intoAllocs, intoBytes, freshAllocs, freshBytes, gradBytes)
	}
}

func TestSecondBackwardPanics(t *testing.T) {
	bg, feats, labels := stepFixture()
	m := stepModel(0)
	act, _ := m.Forward(bg, feats)
	_, dLogits := Loss(act, act.SeedLabels(labels))
	dLogits = &dense.Matrix{Rows: dLogits.Rows, Cols: dLogits.Cols, Data: append([]float64(nil), dLogits.Data...)}
	m.Backward(act, dLogits)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "after Backward") {
			t.Fatalf("second Backward: recovered %q, want the use-after-Backward message", msg)
		}
	}()
	m.Backward(act, dLogits)
}

// The pipeline shares one model across ranks: concurrent steps must
// each return the serial step's gradient.
func TestConcurrentStepsMatchSerial(t *testing.T) {
	bg, feats, labels := stepFixture()
	m := stepModel(0.5)
	step := func() uint64 {
		act, _ := m.Forward(bg, feats)
		_, dLogits := Loss(act, act.SeedLabels(labels))
		grads, _ := m.Backward(act, dLogits)
		return gradHash(grads)
	}
	want := step()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := step(); got != want {
					t.Errorf("concurrent step: gradient FNV-1a %#x, want %#x", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
