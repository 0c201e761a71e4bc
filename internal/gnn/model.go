// Package gnn implements the GraphSAGE model trained in the paper's
// end-to-end pipeline: L mean-aggregator SAGE convolutions over the
// sampled computation graph followed by a linear classifier, with
// explicit (dependency-free) backpropagation. Parameters live in one
// flat vector so data-parallel gradient all-reduce and optimizer steps
// operate on contiguous memory.
package gnn

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// Config describes a SAGE network.
type Config struct {
	In      int // input feature width
	Hidden  int // hidden width (Table 4 uses 256; scaled presets use less)
	Classes int
	Layers  int // number of SAGE convolutions (Table 4: 3 for SAGE, 1 for LADIES)
	Seed    int64
}

// layerView holds parameter matrix views into the flat buffer for one
// SAGE convolution: out = ReLU(H_self·WSelf + mean(H_neigh)·WNeigh).
// WSelf starts at flat[off] and WNeigh follows it; a gradient vector
// has the same layout.
type layerView struct {
	WSelf, WNeigh *dense.Matrix
	off           int
}

// Model is a GraphSAGE network with a linear classification head.
type Model struct {
	Cfg    Config
	flat   []float64
	layers []layerView
	wOut   *dense.Matrix
	bOut   []float64
	outOff int // wOut starts at flat[outOff], bOut follows it
}

// NewModel allocates and Xavier-initializes a model.
func NewModel(cfg Config) *Model {
	if cfg.Layers < 1 {
		panic("gnn: need at least one layer")
	}
	total := 0
	dims := layerDims(cfg)
	for _, d := range dims {
		total += 2 * d[0] * d[1]
	}
	total += cfg.Hidden*cfg.Classes + cfg.Classes
	m := &Model{Cfg: cfg, flat: make([]float64, total)}
	off := 0
	view := func(r, c int) *dense.Matrix {
		v := dense.FromSlice(r, c, m.flat[off:off+r*c])
		off += r * c
		return v
	}
	for _, d := range dims {
		lay := layerView{off: off}
		lay.WSelf, lay.WNeigh = view(d[0], d[1]), view(d[0], d[1])
		m.layers = append(m.layers, lay)
	}
	m.outOff = off
	m.wOut = view(cfg.Hidden, cfg.Classes)
	m.bOut = m.flat[off : off+cfg.Classes]

	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, l := range m.layers {
		dense.XavierInit(l.WSelf, rng)
		dense.XavierInit(l.WNeigh, rng)
	}
	dense.XavierInit(m.wOut, rng)
	return m
}

// layerDims returns (in, out) for each convolution in application
// order: the first conv consumes raw features.
func layerDims(cfg Config) [][2]int {
	dims := make([][2]int, cfg.Layers)
	for i := range dims {
		in := cfg.Hidden
		if i == 0 {
			in = cfg.In
		}
		dims[i] = [2]int{in, cfg.Hidden}
	}
	return dims
}

// Params returns the flat parameter vector (shared storage — the
// optimizer mutates the model through it).
func (m *Model) Params() []float64 { return m.flat }

// NumParams returns the parameter count.
func (m *Model) NumParams() int { return len(m.flat) }

// SetParams copies the given flat vector into the model.
func (m *Model) SetParams(p []float64) {
	if len(p) != len(m.flat) {
		panic(fmt.Sprintf("gnn: SetParams got %d values, want %d", len(p), len(m.flat)))
	}
	copy(m.flat, p)
}

// Activations is one minibatch's forward pass: the logits, and what
// Backward needs of the way there. Everything it points at except the
// caller's feature matrix is memory of the step's workspace, valid
// until Backward returns; a step that ends without Backward (evaluation)
// keeps it for as long as the Activations live.
type Activations struct {
	Logits *dense.Matrix

	bg     *core.BatchGraph
	ws     *workspace // nil once Backward has returned it
	layers []layerAct
	hTop   *dense.Matrix // output of the last conv, the classifier's input
}

// workspace returns the step's workspace, or panics if Backward has
// already handed it to another step.
func (a *Activations) workspace() *workspace {
	if a.ws == nil {
		panic("gnn: Activations used after Backward: its buffers belong to another step now")
	}
	return a.ws
}

// SeedLabels returns labels[v] for every seed vertex v of the batch,
// in order — the step's targets, in the step's memory.
func (a *Activations) SeedLabels(labels []int) []int {
	ws := a.workspace()
	if cap(ws.labels) < len(a.bg.Seeds) {
		ws.labels = make([]int, len(a.bg.Seeds))
	}
	out := ws.labels[:len(a.bg.Seeds)]
	for i, v := range a.bg.Seeds {
		out[i] = labels[v]
	}
	return out
}

// Forward runs the network over one minibatch. feats holds the feature
// rows of bg's input frontier (one row per InputVertices() entry) and
// is only read. The returned flop count covers every dense and sparse
// kernel.
func (m *Model) Forward(bg *core.BatchGraph, feats *dense.Matrix) (*Activations, int64) {
	if bg.Depth() != m.Cfg.Layers {
		panic(fmt.Sprintf("gnn: batch has %d layers, model %d", bg.Depth(), m.Cfg.Layers))
	}
	if feats.Rows != len(bg.InputVertices()) {
		panic(fmt.Sprintf("gnn: got %d feature rows for %d input vertices",
			feats.Rows, len(bg.InputVertices())))
	}
	ws := takeWorkspace()
	if cap(ws.layers) < m.Cfg.Layers {
		ws.layers = make([]layerAct, m.Cfg.Layers)
	}
	act := &Activations{bg: bg, ws: ws, layers: ws.layers[:m.Cfg.Layers]}
	var flops int64
	h := feats
	for t := range act.layers {
		adj := bg.Adjs[m.Cfg.Layers-1-t] // deepest first
		lay := m.layers[t]
		rows := adj.Rows
		la := &act.layers[t]
		la.h = h
		la.norm = normalizeAdj(adj, ws)

		// Self term: embeddings of this depth's frontier are the first
		// rows of h (the column frontier embeds the row frontier).
		la.z = ws.mat(rows, m.Cfg.Hidden)
		flops += dense.MatMulInto(la.z, ws.view(rows, h.Cols, h.Data), lay.WSelf)
		la.agg = ws.mat(rows, h.Cols)
		flops += sparse.SpMMInto(la.agg.Data, &la.norm, h.Data, h.Cols)
		zNeigh := ws.mat(rows, m.Cfg.Hidden)
		flops += dense.MatMulInto(zNeigh, la.agg, lay.WNeigh)
		la.z.AddInPlace(zNeigh)

		h = zNeigh // added into z and dead: the layer's output takes its place
		dense.ReLUInto(h, la.z)
	}
	act.hTop = h
	act.Logits = ws.mat(h.Rows, m.Cfg.Classes)
	flops += dense.MatMulInto(act.Logits, h, m.wOut)
	for i := 0; i < act.Logits.Rows; i++ {
		row := act.Logits.RowView(i)
		for j := range row {
			row[j] += m.bOut[j]
		}
	}
	return act, flops
}

// normalizeAdj returns the mean-aggregation operator for a sampled
// bipartite adjacency block (rows: layer-l frontier, cols: layer-(l-1)
// frontier): each row divided by its degree. The operator shares adj's
// structure; its values are workspace memory, so adj is never written.
func normalizeAdj(adj *sparse.CSR, ws *workspace) sparse.CSR {
	out := *adj
	out.Val = ws.take(len(adj.Val))
	copy(out.Val, adj.Val)
	out.NormalizeRows()
	return out
}

// Backward is BackwardInto a freshly allocated gradient vector, which
// it returns: the form for callers that keep every step's gradient
// (benchmark/walk.go, the examples).
func (m *Model) Backward(act *Activations, dLogits *dense.Matrix) ([]float64, int64) {
	grads := make([]float64, len(m.flat))
	return grads, m.BackwardInto(act, dLogits, grads)
}

// BackwardInto writes the gradient of the loss with respect to every
// parameter, given dLogits (from Loss), into grads: a flat vector
// aligned with Params() whose prior contents are ignored. grads is the
// caller's, not step memory, because the data-parallel all-reduce reads
// it while its owner is parked — after another rank may have taken this
// step's workspace — so the caller recycles it only once the all-reduce
// has returned. BackwardInto ends the step: act must not be used again.
//
// The returned flop count is what the matrix algorithm performs. Two
// of its terms are charged without being run: the aggregation SpMM
// (Forward kept its result) and the first convolution's input gradient
// (two MatMulT over the widest frontier and an SpMMT, whose result no
// parameter gradient reads).
func (m *Model) BackwardInto(act *Activations, dLogits *dense.Matrix, grads []float64) int64 {
	if len(grads) != len(m.flat) {
		panic(fmt.Sprintf("gnn: gradient buffer holds %d values, model has %d", len(grads), len(m.flat)))
	}
	ws := act.workspace()
	hidden, classes := m.Cfg.Hidden, m.Cfg.Classes
	var flops int64

	// Classifier. Every weight gradient below is a TMatMulInto, which
	// overwrites its output; the bias gradient is the one sum.
	gWOut := ws.view(hidden, classes, grads[m.outOff:])
	gBOut := grads[m.outOff+hidden*classes:]
	clear(gBOut)
	flops += dense.TMatMulInto(gWOut, act.hTop, dLogits)
	for i := 0; i < dLogits.Rows; i++ {
		row := dLogits.RowView(i)
		for j := range row {
			gBOut[j] += row[j]
		}
	}
	dh := ws.mat(dLogits.Rows, hidden)
	flops += dense.MatMulTInto(dh, dLogits, m.wOut, ws.mat(classes, hidden))

	// Convolutions, last applied first.
	for t := m.Cfg.Layers - 1; t >= 0; t-- {
		lay := m.layers[t]
		la := &act.layers[t]
		rows, in := la.z.Rows, la.h.Cols
		nnz := int64(la.norm.NNZ())

		dz := dh
		dense.ReLUGradInPlace(dz, la.z)

		gSelf := ws.view(in, hidden, grads[lay.off:])
		gNeigh := ws.view(in, hidden, grads[lay.off+in*hidden:])
		flops += dense.TMatMulInto(gSelf, ws.view(rows, in, la.h.Data), dz)
		flops += nnz * int64(in) // la.agg
		flops += dense.TMatMulInto(gNeigh, la.agg, dz)

		// Gradient to the layer input: self path into the prefix rows,
		// neighbor path through the transposed normalized adjacency.
		// The first convolution's input is the features: charged as the
		// two MatMulT and the SpMMT below, not computed.
		if t == 0 {
			flops += 2*int64(rows)*int64(hidden)*int64(in) + nnz*int64(in)
			break
		}
		wT := ws.mat(hidden, in)
		dSelf, dAgg := ws.mat(rows, in), ws.mat(rows, in)
		flops += dense.MatMulTInto(dSelf, dz, lay.WSelf, wT)
		flops += dense.MatMulTInto(dAgg, dz, lay.WNeigh, wT)
		dh = ws.mat(la.h.Rows, in)
		flops += sparse.SpMMTInto(dh.Data, &la.norm, dAgg.Data, in)
		for i, v := range dSelf.Data {
			dh.Data[i] += v
		}
	}

	*act = Activations{}
	putWorkspace(ws)
	return flops
}

// Loss computes cross-entropy over the seed vertices and the logits
// gradient (step memory, like the logits).
func Loss(act *Activations, labels []int) (float64, *dense.Matrix) {
	dLogits := act.workspace().mat(act.Logits.Rows, act.Logits.Cols)
	return dense.CrossEntropyInto(dLogits, act.Logits, labels), dLogits
}
