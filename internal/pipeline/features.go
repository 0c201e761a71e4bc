// Package pipeline implements the paper's end-to-end training pipeline
// (Section 6, Figure 3): bulk sampling, feature fetching with
// all-to-allv over process columns of the 1.5D-partitioned feature
// matrix, and per-minibatch forward/backward propagation with
// data-parallel gradient all-reduce.
package pipeline

import (
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/graph"
)

// FeatureStore is a rank's share of the 1.5D-partitioned feature
// matrix H: block row [Lo, Hi), replicated on the c members of the
// rank's process row. Each process column therefore holds the entirety
// of H (Section 6.2).
type FeatureStore struct {
	Grid   *cluster.Grid
	H      *dense.Matrix // rows [Lo, Hi) of the global feature matrix
	Lo, Hi int
	N      int

	// global backs cache serving in the simulation: a cached row's
	// contents equal the global row (a real cache would have copied
	// it at prefetch or on first fetch).
	global *dense.Matrix

	// scratch holds the epoch-persistent fetch workspaces of the c
	// replicas sharing this block row, indexed by grid column. Before
	// it, every FetchCached call rebuilt the request/response
	// bookkeeping from fresh heap once per batch.
	scratch []*fetchScratch
}

// fetchScratch is one rank's reusable buffers for FetchCached's two
// all-to-allv rounds. The request and response buffers cross the wire
// by reference; reuse is safe by the rendezvous happens-before edges:
// an owner reads request lists between the two rounds, and a requester
// rewrites its lists only after leaving round two — which the owner
// must have entered, so it is done reading. Response rows are read by
// requesters before they enter any later collective on the column
// communicator; the owner rewrites them only behind its next call's
// round one, which every member must have reached. The assembled
// output matrix is NOT part of the workspace — it outlives the call
// (the overlap pipeline hands it to the propagation stage).
type fetchScratch struct {
	reqBacking  []fetchRequest
	reqs        []*fetchRequest
	firstSlot   [][]int
	pos         map[int]int
	respBacking []fetchResponse
	resps       []*fetchResponse
	rowData     []float64
}

// NewFeatureStores slices the global feature matrix into the grid's
// block rows. H is read-only, so each block is a view over feats'
// storage, not a copy — replicas in a process row share it (they would
// hold identical copies on real hardware).
func NewFeatureStores(g *cluster.Grid, feats *dense.Matrix) []*FeatureStore {
	blocks := make([]*FeatureStore, g.Rows)
	for i := 0; i < g.Rows; i++ {
		lo, hi := graph.BlockRowRange(feats.Rows, g.Rows, i)
		h := dense.FromSlice(hi-lo, feats.Cols, feats.Data[lo*feats.Cols:hi*feats.Cols])
		blocks[i] = &FeatureStore{Grid: g, H: h, Lo: lo, Hi: hi, N: feats.Rows, global: feats,
			scratch: make([]*fetchScratch, g.C)}
	}
	out := make([]*FeatureStore, g.P)
	for rank := 0; rank < g.P; rank++ {
		out[rank] = blocks[g.RowIndex(rank)]
	}
	return out
}

// fetchScratchFor returns the calling rank's fetch workspace, building
// it on first use. Replicas of a process row index disjoint slots (by
// grid column), so the lazy writes never race. A store constructed
// without NewFeatureStores falls back to per-call buffers.
func (fs *FeatureStore) fetchScratchFor(rank int) *fetchScratch {
	if fs.scratch == nil {
		return &fetchScratch{}
	}
	j := fs.Grid.ColIndex(rank)
	s := fs.scratch[j]
	if s == nil {
		s = &fetchScratch{}
		fs.scratch[j] = s
	}
	return s
}

// fetchRequest asks an owner for specific global vertex rows.
type fetchRequest struct {
	vertices []int
}

// fetchResponse returns the requested rows, in request order. The
// matrix is held by value so a response array needs one allocation, not
// one per member.
type fetchResponse struct {
	rows dense.Matrix
}

// Fetch assembles the feature rows of the given global vertices via
// all-to-allv over the rank's process column (every column holds all
// of H). Vertices may repeat. The two collective rounds — requests,
// then row data — both really move the data; the row-data round
// dominates the modeled cost, and its volume shrinks as the
// replication factor c grows because each rank owns a larger block of
// H (the scaling lever of Figure 6).
func (fs *FeatureStore) Fetch(r *cluster.Rank, vertices []int) *dense.Matrix {
	return fs.FetchCached(r, vertices, nil)
}

// FetchCached is Fetch with an optional per-rank feature cache (the
// SALIENT++-style extension of Section 8.1.2): cached vertices are
// served from device memory and never enter the all-to-allv, shrinking
// the communication volume. Rows fetched remotely are admitted to the
// cache. Pass a nil cache to disable.
//
// Repeated vertices in one request are deduplicated before the
// all-to-allv: each distinct vertex crosses the wire (and touches the
// cache — one Lookup, at most one Admit) once per request, and its row
// is then copied into every output slot that asked for it.
//
// The collectives go through the communicator clone dedicated to the
// calling stream (ForStream), so a fetch stage prefetching on its own
// stream coexists with collective-bearing sampling on another.
func (fs *FeatureStore) FetchCached(r *cluster.Rank, vertices []int, c cache.Cache) *dense.Matrix {
	g := fs.Grid
	colComm := g.ColComm(r.ID).ForStream(r)
	members := colComm.Size() // == g.Rows
	f := fs.H.Cols
	out := dense.New(len(vertices), f)
	me := colComm.LocalIndex(r)

	// Partition the request by owning block row, deduplicating repeats
	// and remembering every output position each distinct vertex fills.
	// Cache hits are served immediately from device memory. A vertex has
	// exactly one owner, so one position map serves all block rows; the
	// common single-position case stays allocation-free (firstSlot), and
	// only genuine repeats spill into the lazy extra-slot table. The
	// bookkeeping comes from the rank's epoch-persistent workspace (see
	// fetchScratch for why reuse across batches is safe).
	sc := fs.fetchScratchFor(r.ID)
	if cap(sc.reqBacking) < members {
		sc.reqBacking = make([]fetchRequest, members)
		sc.reqs = make([]*fetchRequest, members)
		sc.firstSlot = make([][]int, members)
		sc.respBacking = make([]fetchResponse, members)
		sc.resps = make([]*fetchResponse, members)
		sc.pos = make(map[int]int, len(vertices))
	}
	reqBacking := sc.reqBacking[:members]
	reqs := sc.reqs[:members]
	firstSlot := sc.firstSlot[:members] // first output position per requested vertex
	for m := range reqs {
		reqBacking[m].vertices = reqBacking[m].vertices[:0]
		firstSlot[m] = firstSlot[m][:0]
		reqs[m] = &reqBacking[m]
	}
	pos := sc.pos // vertex -> index in its owner's request
	clear(pos)
	var extraSlots map[[2]int][]int // (owner, pos) -> further output positions
	var cacheHit map[int]bool       // vertices served from cache this request
	var cachedBytes int64
	for i, v := range vertices {
		if cacheHit[v] {
			copy(out.RowView(i), fs.global.RowView(v))
			cachedBytes += int64(8 * f)
			continue
		}
		owner := graph.BlockOwner(fs.N, members, v)
		if p, ok := pos[v]; ok {
			if extraSlots == nil {
				extraSlots = map[[2]int][]int{}
			}
			k := [2]int{owner, p}
			extraSlots[k] = append(extraSlots[k], i)
			continue
		}
		if c != nil && owner != me && c.Lookup(v) {
			if cacheHit == nil {
				cacheHit = map[int]bool{}
			}
			cacheHit[v] = true
			copy(out.RowView(i), fs.global.RowView(v))
			cachedBytes += int64(8 * f)
			continue
		}
		pos[v] = len(reqs[owner].vertices)
		reqs[owner].vertices = append(reqs[owner].vertices, v)
		firstSlot[owner] = append(firstSlot[owner], i)
	}
	if cachedBytes > 0 {
		r.ChargeMem(cachedBytes)
	}

	incoming := cluster.AllToAllv(colComm, r, reqs, func(q *fetchRequest) int {
		return 8 * len(q.vertices)
	})

	// Serve each requester from the local block; all response rows share
	// one backing allocation, reused across batches.
	respBacking := sc.respBacking[:members]
	resps := sc.resps[:members]
	totalRows := 0
	for _, q := range incoming {
		totalRows += len(q.vertices)
	}
	if cap(sc.rowData) < totalRows*f {
		sc.rowData = make([]float64, totalRows*f)
	}
	rowData := sc.rowData[:totalRows*f]
	var served int64
	for m, q := range incoming {
		rows := dense.Matrix{Rows: len(q.vertices), Cols: f, Data: rowData[:len(q.vertices)*f]}
		rowData = rowData[len(q.vertices)*f:]
		for i, v := range q.vertices {
			copy(rows.RowView(i), fs.H.RowView(v-fs.Lo))
		}
		respBacking[m] = fetchResponse{rows: rows}
		resps[m] = &respBacking[m]
		served += int64(len(q.vertices) * f * 8)
	}
	r.ChargeMem(served)

	got := cluster.AllToAllv(colComm, r, resps, func(p *fetchResponse) int {
		return p.rows.Bytes()
	})

	for m, p := range got {
		for i, slot := range firstSlot[m] {
			copy(out.RowView(slot), p.rows.RowView(i))
			for _, extra := range extraSlots[[2]int{m, i}] {
				copy(out.RowView(extra), p.rows.RowView(i))
			}
			if c != nil && m != me {
				c.Admit(reqs[m].vertices[i])
			}
		}
	}
	r.ChargeMem(int64(len(vertices) * f * 8))
	return out
}
