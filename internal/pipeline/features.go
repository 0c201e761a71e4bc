// Package pipeline implements the paper's end-to-end training pipeline
// (Section 6, Figure 3): bulk sampling, feature fetching with
// all-to-allv over process columns of the 1.5D-partitioned feature
// matrix, and per-minibatch forward/backward propagation with
// data-parallel gradient all-reduce.
package pipeline

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/dense"
	"repro/internal/freelist"
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

	// scratch is the set's fetch workspaces, shared by every block and
	// indexed by rank (grid slot (i, j) is scratch[i*c+j]), recycled by
	// position from run to run like the partitioned stage arenas (see
	// NewFeatureStores). Before it, every Fetch call rebuilt the
	// request/response bookkeeping from fresh heap once per batch.
	scratch []*fetchScratch
}

// fetchScratch is one rank's reusable bookkeeping for Fetch's two
// all-to-allv rounds, sized by the rank's requests and the rows it
// serves; only count has one entry per column member, and a call
// touches only the entries of the owners it asks. The request lists
// and response rows cross the wire by reference; reuse is safe by the
// rendezvous happens-before edges: an owner reads request lists
// between the two rounds, and a requester rewrites its lists only
// after leaving round two — which the owner must have entered, so it
// is done reading.
// Response rows are read by requesters before they enter any later
// collective on the column communicator; the owner rewrites them only
// behind its next call's round one, which every member must have
// reached. That is also why a workspace is never handed on when a call
// returns — a requester may still be reading an owner's rows after the
// owner has returned — but only with its whole set, once the cluster
// run is over. The assembled output matrix is not part of the
// workspace: it outlives the call (the overlap pipeline hands it to the
// propagation stage), so it comes from a free list of its own, and the
// propagation stage gives it back when its step is done.
//
//gnnvet:arena
type fetchScratch struct {
	pos      map[int]int  // vertex -> output slot of its first request
	wanted   []fetchEntry // distinct vertices to fetch, grouped by owner
	grouped  []fetchEntry // the grouping pass's output, swapped with wanted
	repeats  []fetchRepeat
	count    []int32 // per owner, zero between calls: the grouping pass's counts
	owners   []int   // owners asked, ascending: round one's destinations
	reqs     [][]int
	reqVerts []int // backing of reqs
	resps    []dense.Matrix
	rowData  []float64 // backing of resps
}

// fetchEntry is one distinct vertex to fetch, its owner, and the output
// slot of its first request. Owners and slots are 32-bit, to keep the
// list compact.
type fetchEntry struct {
	vertex      int
	owner, slot int32
}

// fetchRepeat is a later output slot of an already requested vertex.
type fetchRepeat struct{ first, slot int32 }

// freeScratchSets holds the fetch workspaces of released store sets.
var freeScratchSets freelist.List[[]*fetchScratch]

// NewFeatureStores slices the global feature matrix into the grid's
// block rows. H is read-only, so each block is a view over feats'
// storage, not a copy — replicas in a process row share it (they would
// hold identical copies on real hardware). The fetch workspaces are a
// whole released set's, when the process has one, reused by position
// (grid slot (i, j) keeps serving the rank at (i, j)); Run gives them
// back when its attempt has finished cleanly.
func NewFeatureStores(g *cluster.Grid, feats *dense.Matrix) []*FeatureStore {
	scratch, _ := freeScratchSets.Take()
	if len(scratch) < g.P {
		scratch = append(scratch, make([]*fetchScratch, g.P-len(scratch))...)
	}
	blocks := make([]*FeatureStore, g.Rows)
	for i := 0; i < g.Rows; i++ {
		lo, hi := graph.BlockRowRange(feats.Rows, g.Rows, i)
		h := dense.FromSlice(hi-lo, feats.Cols, feats.Data[lo*feats.Cols:hi*feats.Cols])
		blocks[i] = &FeatureStore{Grid: g, H: h, Lo: lo, Hi: hi, N: feats.Rows, scratch: scratch}
	}
	out := make([]*FeatureStore, g.P)
	for rank := 0; rank < g.P; rank++ {
		out[rank] = blocks[g.RowIndex(rank)]
	}
	return out
}

// releaseFeatureStores hands the set's fetch workspaces to the next
// NewFeatureStores. Only once the cluster run that used the stores has
// returned without error: until then a requester may be reading an
// owner's response rows, and a failed run leaves workspaces mid-call.
func releaseFeatureStores(stores []*FeatureStore) {
	freeScratchSets.Put(stores[0].scratch)
}

// fetchScratchFor returns the calling rank's fetch workspace, building
// it on first use. Every rank indexes its own slot, so the lazy writes
// never race.
func (fs *FeatureStore) fetchScratchFor(rank int) *fetchScratch {
	s := fs.scratch[rank]
	if s == nil {
		s = &fetchScratch{pos: map[int]int{}}
		fs.scratch[rank] = s
	}
	return s
}

// freeFeatures holds Fetch results whose last reader — the
// propagation step's Backward — is done with them.
var freeFeatures freelist.List[*dense.Matrix]

// takeFeatures returns a rows x cols matrix of unspecified contents,
// reusing a finished step's storage (with headroom, like the step
// workspace: frontier sizes vary batch to batch) when it is large
// enough.
func takeFeatures(rows, cols int) *dense.Matrix {
	m, ok := freeFeatures.Take()
	if !ok {
		m = new(dense.Matrix)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n+n/8)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// Fetch assembles the feature rows of the given global vertices via
// all-to-allv over the rank's process column (every column holds all
// of H). Vertices may repeat. The two collective rounds — requests,
// then row data — both really move the data; the row-data round
// dominates the modeled cost, and its volume shrinks as the
// replication factor c grows because each rank owns a larger block of
// H (the scaling lever of Figure 6).
//
// Repeated vertices in one request are deduplicated before the
// all-to-allv: each distinct vertex crosses the wire once per request,
// and its row is then copied into every output slot that asked for it.
//
// The collectives go through the communicator clone dedicated to the
// calling stream (ForStream), so a fetch stage prefetching on its own
// stream coexists with collective-bearing sampling on another.
//
// The result is the caller's until it hands it back to the package's
// free list (Run's propagation stage does, after Backward): every row
// of it is written here, over whatever a finished step left behind. It
// is taken only once both collectives are over, so the ranks parked in
// them hold no output matrix.
func (fs *FeatureStore) Fetch(r *cluster.Rank, vertices []int) *dense.Matrix {
	g := fs.Grid
	colComm := g.ColComm(r.ID).ForStream(r)
	members := colComm.Size() // == g.Rows
	f := fs.H.Cols

	// Deduplicate the request, remembering every output slot each
	// distinct vertex fills. The bookkeeping comes from the rank's
	// persistent workspace (see fetchScratch for why reuse across
	// batches is safe).
	sc := fs.fetchScratchFor(r.ID)
	clear(sc.pos)
	sc.wanted, sc.repeats = sc.wanted[:0], sc.repeats[:0]
	for i, v := range vertices {
		if first, seen := sc.pos[v]; seen {
			sc.repeats = append(sc.repeats, fetchRepeat{int32(first), int32(i)})
			continue
		}
		sc.pos[v] = i
		sc.wanted = append(sc.wanted, fetchEntry{v, int32(graph.BlockOwner(fs.N, members, v)), int32(i)})
	}

	// One request list per owner actually asked, owners ascending and
	// each list in first-request order: a stable counting pass. It
	// counts and offsets only the owners asked (count is zero between
	// calls), so it never scans the column.
	if len(sc.count) < members {
		sc.count = make([]int32, members)
	}
	sc.owners = sc.owners[:0]
	for _, e := range sc.wanted {
		if sc.count[e.owner] == 0 {
			sc.owners = append(sc.owners, int(e.owner))
		}
		sc.count[e.owner]++
	}
	slices.Sort(sc.owners)
	n := len(sc.wanted)
	sc.reqVerts = slices.Grow(sc.reqVerts[:0], n)[:n]
	sc.grouped = slices.Grow(sc.grouped[:0], n)[:n]
	sc.reqs = sc.reqs[:0]
	var off int32
	for _, o := range sc.owners {
		c := sc.count[o]
		sc.count[o] = off
		sc.reqs = append(sc.reqs, sc.reqVerts[off:off+c])
		off += c
	}
	for _, e := range sc.wanted {
		i := sc.count[e.owner]
		sc.count[e.owner]++
		sc.grouped[i], sc.reqVerts[i] = e, e.vertex
	}
	for _, o := range sc.owners {
		sc.count[o] = 0
	}
	sc.wanted, sc.grouped = sc.grouped, sc.wanted

	askers, incoming := cluster.AllToAllvSparse(colComm, r, sc.owners, sc.reqs, func(q []int) int {
		return 8 * len(q)
	})

	// Serve each requester from the local block; all response rows share
	// one backing buffer, reused across batches.
	totalRows := 0
	for _, q := range incoming {
		totalRows += len(q)
	}
	if cap(sc.rowData) < totalRows*f {
		sc.rowData = make([]float64, totalRows*f)
	}
	rowData := sc.rowData[:totalRows*f]
	sc.resps = sc.resps[:0]
	for _, q := range incoming {
		rows := dense.Matrix{Rows: len(q), Cols: f, Data: rowData[:len(q)*f]}
		rowData = rowData[len(q)*f:]
		for i, v := range q {
			copy(rows.RowView(i), fs.H.RowView(v-fs.Lo))
		}
		sc.resps = append(sc.resps, rows)
	}
	r.Charge(cluster.Work{MemBytes: int64(totalRows * f * 8)})

	_, got := cluster.AllToAllvSparse(colComm, r, askers, sc.resps, func(m dense.Matrix) int {
		return m.Bytes()
	})

	out := takeFeatures(len(vertices), f)
	// Every owner asked answers once, in ascending owner order: the rows
	// arrive in the order of sc.wanted.
	k := 0
	for _, rows := range got {
		for i := 0; i < rows.Rows; i++ {
			e := sc.wanted[k]
			k++
			copy(out.RowView(int(e.slot)), rows.RowView(i))
		}
	}
	for _, rp := range sc.repeats {
		copy(out.RowView(int(rp.slot)), out.RowView(int(rp.first)))
	}
	r.Charge(cluster.Work{MemBytes: int64(len(vertices) * f * 8)})
	return out
}

// FetchCached is Fetch under the name benchmark/walk.go calls; its
// third argument is ignored. It goes with ROADMAP item 1a.
func (fs *FeatureStore) FetchCached(r *cluster.Rank, vertices []int, _ any) *dense.Matrix {
	return fs.Fetch(r, vertices)
}
