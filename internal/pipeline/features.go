// Package pipeline implements the paper's end-to-end training pipeline
// (Section 6, Figure 3): bulk sampling, feature fetching with
// all-to-allv over process columns of the 1.5D-partitioned feature
// matrix, and per-minibatch forward/backward propagation with
// data-parallel gradient all-reduce.
package pipeline

import (
	"slices"

	"repro/internal/cache"
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

	// global backs cache serving in the simulation: a cached row's
	// contents equal the global row (a real cache would have copied
	// it at prefetch or on first fetch).
	global *dense.Matrix

	// scratch is the set's fetch workspaces, shared by every block and
	// indexed by rank (grid slot (i, j) is scratch[i*c+j]), recycled by
	// position from run to run like the partitioned stage arenas (see
	// NewFeatureStores). Before it, every FetchCached call rebuilt the
	// request/response bookkeeping from fresh heap once per batch.
	scratch []*fetchScratch
}

// fetchScratch is one rank's reusable bookkeeping for FetchCached's two
// all-to-allv rounds, sized by the rank's requests and the rows it
// serves, never by the column's size. The request lists and response
// rows cross the wire by reference; reuse is safe by the rendezvous
// happens-before edges: an owner reads request lists between the two
// rounds, and a requester rewrites its lists only after leaving round
// two — which the owner must have entered, so it is done reading.
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
	pos      map[int]int  // vertex -> output slot of its first request, or fetchCacheHit
	wanted   []fetchEntry // distinct vertices to fetch, grouped by owner
	hits     []fetchEntry // output slots served from the cache (owner unused)
	repeats  []fetchRepeat
	owners   []int // owners asked, ascending: round one's destinations
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

// fetchCacheHit marks a vertex served from the cache in this request.
const fetchCacheHit = -1

// freeScratchSets holds the fetch workspaces of released store sets.
var freeScratchSets freelist.List[[]*fetchScratch]

// NewFeatureStores slices the global feature matrix into the grid's
// block rows. H is read-only, so each block is a view over feats'
// storage, not a copy — replicas in a process row share it (they would
// hold identical copies on real hardware). The fetch workspaces are a
// whole released set's, when the process has one, reused by position
// (grid slot (i, j) keeps serving the rank at (i, j)); Train gives them
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
		blocks[i] = &FeatureStore{Grid: g, H: h, Lo: lo, Hi: hi, N: feats.Rows, global: feats,
			scratch: scratch}
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

// freeFeatures holds FetchCached results whose last reader — the
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
//
// The result is the caller's until it hands it back to the package's
// free list (Train's propagation stage does, after Backward): every row
// of it is written here, over whatever a finished step left behind. It
// is taken only once both collectives are over, so the ranks parked in
// them hold no output matrix.
func (fs *FeatureStore) FetchCached(r *cluster.Rank, vertices []int, c cache.Cache) *dense.Matrix {
	g := fs.Grid
	colComm := g.ColComm(r.ID).ForStream(r)
	members := colComm.Size() // == g.Rows
	f := fs.H.Cols
	me := colComm.LocalIndex(r)

	// Deduplicate the request, remembering every output slot each
	// distinct vertex fills. Cache hits are served from device memory.
	// The bookkeeping comes from the rank's persistent workspace (see
	// fetchScratch for why reuse across batches is safe).
	sc := fs.fetchScratchFor(r.ID)
	clear(sc.pos)
	sc.wanted, sc.hits, sc.repeats = sc.wanted[:0], sc.hits[:0], sc.repeats[:0]
	var cachedBytes int64
	for i, v := range vertices {
		first, seen := sc.pos[v]
		if seen && first == fetchCacheHit {
			sc.hits = append(sc.hits, fetchEntry{vertex: v, slot: int32(i)})
			cachedBytes += int64(8 * f)
			continue
		}
		if seen {
			sc.repeats = append(sc.repeats, fetchRepeat{int32(first), int32(i)})
			continue
		}
		owner := graph.BlockOwner(fs.N, members, v)
		if c != nil && owner != me && c.Lookup(v) {
			sc.pos[v] = fetchCacheHit
			sc.hits = append(sc.hits, fetchEntry{vertex: v, slot: int32(i)})
			cachedBytes += int64(8 * f)
			continue
		}
		sc.pos[v] = i
		sc.wanted = append(sc.wanted, fetchEntry{v, int32(owner), int32(i)})
	}
	if cachedBytes > 0 {
		r.ChargeMem(cachedBytes)
	}

	// One request list per owner actually asked, owners ascending and
	// each list in first-request order.
	slices.SortStableFunc(sc.wanted, func(a, b fetchEntry) int { return int(a.owner - b.owner) })
	sc.reqVerts = sc.reqVerts[:0]
	for _, e := range sc.wanted {
		sc.reqVerts = append(sc.reqVerts, e.vertex)
	}
	sc.owners, sc.reqs = sc.owners[:0], sc.reqs[:0]
	for lo, hi := 0, 0; lo < len(sc.wanted); lo = hi {
		owner := sc.wanted[lo].owner
		for hi < len(sc.wanted) && sc.wanted[hi].owner == owner {
			hi++
		}
		sc.owners = append(sc.owners, int(owner))
		sc.reqs = append(sc.reqs, sc.reqVerts[lo:hi])
	}

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
	r.ChargeMem(int64(totalRows * f * 8))

	_, got := cluster.AllToAllvSparse(colComm, r, askers, sc.resps, func(m dense.Matrix) int {
		return m.Bytes()
	})

	out := takeFeatures(len(vertices), f)
	for _, e := range sc.hits {
		copy(out.RowView(int(e.slot)), fs.global.RowView(e.vertex))
	}
	// Every owner asked answers once, in ascending owner order: the rows
	// arrive in the order of sc.wanted.
	k := 0
	for _, rows := range got {
		for i := 0; i < rows.Rows; i++ {
			e := sc.wanted[k]
			k++
			copy(out.RowView(int(e.slot)), rows.RowView(i))
			if c != nil && int(e.owner) != me {
				c.Admit(e.vertex)
			}
		}
	}
	for _, rp := range sc.repeats {
		copy(out.RowView(int(rp.slot)), out.RowView(int(rp.first)))
	}
	r.ChargeMem(int64(len(vertices) * f * 8))
	return out
}
