package gnn

import (
	"repro/internal/dense"
	"repro/internal/freelist"
	"repro/internal/sparse"
)

// workspace is the memory of one Forward→Backward step: every matrix
// the step computes except the gradient is drawn from it.
// Forward takes one from the free list, the step's Activations carry
// it, and Backward puts it back when it returns, so the number of live
// workspaces is the number of steps in flight — bounded by the ranks
// running a propagation step at once, not by p. A step that never
// reaches Backward (evaluation) just keeps its workspace until the
// Activations are garbage.
//
// The free list belongs to the process, not to a Model: a workspace
// holds nothing of the model that last used it, and every run builds a
// model of its own. How many steps are in flight at once depends on
// where the Go scheduler interleaves the rank goroutines (a garbage
// collection can pause a rank mid-step at any GOMAXPROCS), so a list
// per model would make each run allocate a scheduling-dependent number
// of fresh workspaces. With one list per process, a run allocates step
// memory only where it needs more than any earlier step in the process
// did.
//
// A step makes the same requests in the same order every time, so the
// i-th request of a step is served by the buffer the i-th request of
// the last step left behind, reallocated (with headroom: frontier sizes
// vary batch to batch) only when it is too small. Buffers handed out
// are valid until the step's Backward returns and hold unspecified
// values.
//
//gnnvet:arena
type workspace struct {
	bufs [][]float64
	hdrs []*dense.Matrix
	// requests served so far this step
	nbufs, nhdrs int

	layers []layerAct
	labels []int
}

// layerAct is what Forward keeps of one convolution for Backward.
type layerAct struct {
	h    *dense.Matrix // input (t = 0: the caller's features, not workspace memory)
	z    *dense.Matrix // pre-activation
	agg  *dense.Matrix // norm · h
	mask *dense.Matrix // dropout mask, nil when disabled
	norm sparse.CSR    // aggregation operator: the batch adjacency's structure, normalized values
}

// take returns n float64s.
func (ws *workspace) take(n int) []float64 {
	if ws.nbufs == len(ws.bufs) {
		ws.bufs = append(ws.bufs, nil)
	}
	buf := &ws.bufs[ws.nbufs]
	ws.nbufs++
	if cap(*buf) < n {
		*buf = make([]float64, n+n/8)
	}
	return (*buf)[:n]
}

// view returns a rows x cols matrix header over data.
func (ws *workspace) view(rows, cols int, data []float64) *dense.Matrix {
	if ws.nhdrs == len(ws.hdrs) {
		ws.hdrs = append(ws.hdrs, new(dense.Matrix))
	}
	m := ws.hdrs[ws.nhdrs]
	ws.nhdrs++
	*m = dense.Matrix{Rows: rows, Cols: cols, Data: data[:rows*cols]}
	return m
}

// mat returns a rows x cols matrix of step memory.
func (ws *workspace) mat(rows, cols int) *dense.Matrix {
	return ws.view(rows, cols, ws.take(rows*cols))
}

// freeWorkspaces holds the workspaces no step holds (see workspace).
var freeWorkspaces freelist.List[*workspace]

// takeWorkspace returns a workspace no other live step holds.
func takeWorkspace() *workspace {
	ws, ok := freeWorkspaces.Take()
	if !ok {
		return &workspace{}
	}
	ws.nbufs, ws.nhdrs = 0, 0
	return ws
}

// putWorkspace returns a finished step's workspace to the free list,
// first dropping what it points at outside itself (the caller's
// features and batch adjacency, the caller's gradient buffer), so a parked
// workspace keeps only its own buffers alive.
func putWorkspace(ws *workspace) {
	clear(ws.layers)
	for _, h := range ws.hdrs {
		*h = dense.Matrix{}
	}
	freeWorkspaces.Put(ws)
}
