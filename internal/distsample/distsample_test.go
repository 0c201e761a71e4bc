package distsample

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

func testGraph(n int, deg float64, seed int64) *sparse.CSR {
	g := graph.ErdosRenyi(n, deg, seed)
	return graph.EnsureMinOutDegree(g, 4, seed+1).Adj
}

func makeBatches(k, b, n int) [][]int {
	out := make([][]int, k)
	v := 0
	for i := range out {
		batch := make([]int, b)
		for j := range batch {
			batch[j] = v % n
			v++
		}
		out[i] = batch
	}
	return out
}

// sameBulk reports the first difference between two bulk samples, layer
// by layer: adjacency values bit for bit (so −0 and +0 differ), and the
// next frontier's vertices and batch bounds.
func sameBulk(a, b *core.BulkSample) error {
	if len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("layer count %d vs %d", len(a.Layers), len(b.Layers))
	}
	for l := range a.Layers {
		la, lb := a.Layers[l], b.Layers[l]
		if err := sameCSRBits(la.Adj, lb.Adj); err != nil {
			return fmt.Errorf("layer %d adjacency: %w", l, err)
		}
		if !slices.Equal(la.Cols.Vertices, lb.Cols.Vertices) || !slices.Equal(la.Cols.BatchPtr, lb.Cols.BatchPtr) {
			return fmt.Errorf("layer %d frontier differs", l)
		}
	}
	return nil
}

func TestReplicatedBatchesPartition(t *testing.T) {
	batches := makeBatches(10, 4, 100)
	seen := 0
	for rank := 0; rank < 4; rank++ {
		seen += len(ReplicatedBatches(4, rank, batches))
	}
	if seen != 10 {
		t.Fatalf("ranks cover %d of 10 batches", seen)
	}
}

func TestReplicatedMatchesLocalSampling(t *testing.T) {
	a := testGraph(120, 8, 1)
	batches := makeBatches(8, 4, 120)
	fanouts := []int{3, 2}

	cl := cluster.New(4, cluster.Perlmutter())
	results := make([]*core.BulkSample, 4)
	_, err := cl.Run(func(r *cluster.Rank) error {
		local := ReplicatedBatches(4, r.ID, batches)
		results[r.ID] = SampleReplicated(r, core.SAGE{}, a, local, fanouts, 77)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		local := ReplicatedBatches(4, rank, batches)
		want := core.SampleBulk(core.SAGE{}, a, local, fanouts, 77)
		if err := sameBulk(results[rank], want); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestReplicatedSamplingHasNoCommunication(t *testing.T) {
	a := testGraph(120, 8, 2)
	batches := makeBatches(8, 4, 120)
	cl := cluster.New(4, cluster.Perlmutter())
	res, err := cl.Run(func(r *cluster.Rank) error {
		local := ReplicatedBatches(4, r.ID, batches)
		SampleReplicated(r, core.SAGE{}, a, local, []int{3, 2}, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{PhaseProbability, PhaseSampling, PhaseExtraction} {
		if res.PhaseComm(phase) != 0 {
			t.Fatalf("replicated algorithm communicated in phase %q", phase)
		}
	}
}

// runPartitioned executes the partitioned sampler on a p-rank, c-way
// grid and returns per-rank results plus the cluster accounting.
func runPartitioned(t *testing.T, a *sparse.CSR, batches [][]int, p, c int,
	s core.Sampler, sizes []int, aware bool) ([]*core.BulkSample, *cluster.Result) {
	t.Helper()
	cl := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl, p, c)
	set := NewPartitionedSet(g, a, aware)
	results := make([]*core.BulkSample, p)
	res, err := cl.Run(func(r *cluster.Rank) error {
		results[r.ID] = SamplePartitioned(r, set[r.ID], s, LocalBatches(g, r.ID, batches), sizes, 99)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, res
}

func TestPartitionedSAGEMatchesLocal(t *testing.T) {
	a := testGraph(150, 10, 3)
	batches := makeBatches(8, 4, 150)
	for _, pc := range [][2]int{{4, 1}, {4, 2}, {8, 2}} {
		p, c := pc[0], pc[1]
		results, _ := runPartitioned(t, a, batches, p, c, core.SAGE{}, []int{3, 2}, true)
		cl := cluster.New(p, cluster.Perlmutter())
		g := cluster.NewGrid(cl, p, c)
		for rank := 0; rank < p; rank++ {
			local := LocalBatches(g, rank, batches)
			want := core.SampleBulk(core.SAGE{}, a, local, []int{3, 2}, 99)
			if err := sameBulk(results[rank], want); err != nil {
				t.Fatalf("p=%d c=%d rank %d: %v", p, c, rank, err)
			}
		}
	}
}

func TestPartitionedSAGEObliviousMatchesAware(t *testing.T) {
	a := testGraph(150, 10, 4)
	batches := makeBatches(4, 4, 150)
	aware, _ := runPartitioned(t, a, batches, 4, 2, core.SAGE{}, []int{3, 2}, true)
	obliv, _ := runPartitioned(t, a, batches, 4, 2, core.SAGE{}, []int{3, 2}, false)
	for rank := range aware {
		if err := sameBulk(aware[rank], obliv[rank]); err != nil {
			t.Fatalf("rank %d: sparsity-aware and oblivious disagree: %v", rank, err)
		}
	}
}

func TestSparsityAwareCommunicatesLess(t *testing.T) {
	a := testGraph(400, 12, 5)
	batches := makeBatches(4, 8, 400)
	_, awareRes := runPartitioned(t, a, batches, 4, 2, core.SAGE{}, []int{3, 2}, true)
	_, oblivRes := runPartitioned(t, a, batches, 4, 2, core.SAGE{}, []int{3, 2}, false)
	var awareBytes, oblivBytes int64
	for _, s := range awareRes.Ranks {
		awareBytes += s.BytesSent
	}
	for _, s := range oblivRes.Ranks {
		oblivBytes += s.BytesSent
	}
	if awareBytes >= oblivBytes {
		t.Fatalf("sparsity-aware sent %d bytes, oblivious %d", awareBytes, oblivBytes)
	}
}

func TestPartitionedLADIESMatchesLocal(t *testing.T) {
	a := testGraph(150, 10, 6)
	batches := makeBatches(8, 4, 150)
	fan := []int{5, 5}
	for _, pc := range [][2]int{{4, 1}, {4, 2}, {8, 2}} {
		p, c := pc[0], pc[1]
		results, _ := runPartitioned(t, a, batches, p, c, core.LADIES{}, fan, true)
		cl := cluster.New(p, cluster.Perlmutter())
		g := cluster.NewGrid(cl, p, c)
		for rank := 0; rank < p; rank++ {
			local := LocalBatches(g, rank, batches)
			want := core.SampleBulk(core.LADIES{}, a, local, fan, 99)
			if err := sameBulk(results[rank], want); err != nil {
				t.Fatalf("p=%d c=%d rank %d: %v", p, c, rank, err)
			}
		}
	}
}

func TestPartitionedPhasesAccounted(t *testing.T) {
	a := testGraph(200, 10, 7)
	batches := makeBatches(8, 4, 200)
	_, res := runPartitioned(t, a, batches, 4, 2, core.SAGE{}, []int{3, 2}, true)
	for _, phase := range []string{PhaseProbability, PhaseSampling, PhaseExtraction} {
		if res.Phase(phase) <= 0 {
			t.Fatalf("phase %q has no time", phase)
		}
	}
	// The probability phase must include communication (the 1.5D
	// SpGEMM), while sampling is communication-free.
	if res.PhaseComm(PhaseProbability) <= 0 {
		t.Fatal("1.5D SpGEMM booked no communication")
	}
	if res.PhaseComm(PhaseSampling) != 0 {
		t.Fatal("sampling phase should be communication-free")
	}
}

func TestPartitionedRequiresDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: c^2 does not divide p")
		}
	}()
	cl := cluster.New(8, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 8, 4) // rows=2, c=4: 2 % 4 != 0
	NewPartitionedSet(g, testGraph(50, 6, 8), true)
}

func TestNewPartitionedSetCoversMatrix(t *testing.T) {
	a := testGraph(103, 8, 9) // odd size exercises uneven blocks
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 2)
	set := NewPartitionedSet(g, a, true)
	covered := 0
	seen := map[int]bool{}
	for rank := 0; rank < 4; rank++ {
		ps := set[rank]
		if seen[ps.Lo] {
			continue
		}
		seen[ps.Lo] = true
		covered += ps.Hi - ps.Lo
		if ps.ALocal.Rows != ps.Hi-ps.Lo {
			t.Fatalf("rank %d block shape mismatch", rank)
		}
	}
	if covered != 103 {
		t.Fatalf("blocks cover %d of 103 rows", covered)
	}
	// Replicas in the same process row share the block.
	if set[0] != set[1] {
		t.Fatal("row replicas should share block state")
	}
}

func TestPartitionedFastGCNMatchesLocal(t *testing.T) {
	a := testGraph(150, 10, 10)
	batches := makeBatches(8, 4, 150)
	fan := []int{5, 5}
	fg := core.FastGCN{Degrees: graph.New(a).Degrees()}
	results, _ := runPartitioned(t, a, batches, 4, 2, fg, fan, true)
	cl := cluster.New(4, cluster.Perlmutter())
	g := cluster.NewGrid(cl, 4, 2)
	for rank := 0; rank < 4; rank++ {
		local := LocalBatches(g, rank, batches)
		want := core.SampleBulk(core.FastGCN{}, a, local, fan, 99)
		if err := sameBulk(results[rank], want); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// chargeDigest hashes what a sampling run charged: per rank, the clock,
// each phase's total and communication time (as float bits) and the
// bytes sent.
func chargeDigest(res *cluster.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, st := range res.Ranks {
		put(math.Float64bits(st.Clock))
		for _, ph := range []string{PhaseProbability, PhaseSampling, PhaseExtraction} {
			put(math.Float64bits(st.PhaseTotal[ph]))
			put(math.Float64bits(st.PhaseComm[ph]))
		}
		put(uint64(st.BytesSent))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// partitionedChargePins are chargeDigest of every 1.5D run below, keyed
// "sampler p=P c=C aware|oblivious", captured from the matrix-multiplying
// stage loop (SPA products, merged fold, private result copies) before
// the host switched to row gathers. Every run must reproduce them:
// what the host executes may change, what the device is charged may not.
var partitionedChargePins = map[string]string{
	"sage p=4 c=1 aware":         "ccf809047bf65c02",
	"sage p=4 c=1 oblivious":     "87083b7cc5f81d59",
	"sage p=8 c=2 aware":         "39d2429817c03632",
	"sage p=8 c=2 oblivious":     "49f18758cdc62058",
	"sage p=16 c=2 aware":        "843b8d09435acbae",
	"sage p=16 c=2 oblivious":    "bb47887cb6aebaff",
	"sage p=16 c=4 aware":        "3f342f9c00e3673b",
	"sage p=16 c=4 oblivious":    "c74c40ada4c5a8b5",
	"ladies p=4 c=1 aware":       "1d71f4f3c1464c30",
	"ladies p=4 c=1 oblivious":   "a453177ba8381207",
	"ladies p=8 c=2 aware":       "51a326e7b09a3da6",
	"ladies p=8 c=2 oblivious":   "a6ecb695f6d56ebf",
	"ladies p=16 c=2 aware":      "10b25b8669f47a28",
	"ladies p=16 c=2 oblivious":  "40607543ef7e54a7",
	"ladies p=16 c=4 aware":      "0a36c6abecd9cb60",
	"ladies p=16 c=4 oblivious":  "9ba01ec204e2c205",
	"fastgcn p=4 c=1 aware":      "743c4835dea0eced",
	"fastgcn p=4 c=1 oblivious":  "e17edb824b64c969",
	"fastgcn p=8 c=2 aware":      "cc18b65c5d68f71b",
	"fastgcn p=8 c=2 oblivious":  "96523748e75d8411",
	"fastgcn p=16 c=2 aware":     "b03e29dafe9bbd44",
	"fastgcn p=16 c=2 oblivious": "15e02a5769f95530",
	"fastgcn p=16 c=4 aware":     "265286fb7d07ed45",
	"fastgcn p=16 c=4 oblivious": "217cf323eac32fe5",
}

// Every sampler of the table, under every distribution of A, returns
// on every rank what the serial bulk sampler returns for that rank's
// batches, layer for layer; every 1.5D grid and either row-fetching
// scheme charge exactly the pinned simulated times and bytes.
func TestDistributedMatchesSerialForEverySampler(t *testing.T) {
	a := testGraph(150, 10, 13)
	g := graph.New(a)
	batches := makeBatches(16, 4, 150)
	const replicatedP = 4
	for _, entry := range core.Samplers {
		s := entry.New(g)
		sizes := core.LayerSizes(s, []int{3, 2}, 5, 2)
		check := func(name string, results []*core.BulkSample) {
			t.Helper()
			for rank, got := range results {
				want := core.SampleBulk(s, a, got.Batches, sizes, 99)
				if len(got.Layers) != len(sizes) {
					t.Fatalf("%s %s rank %d: %d layers, want %d", entry.Key, name, rank, len(got.Layers), len(sizes))
				}
				if err := sameBulk(got, want); err != nil {
					t.Fatalf("%s %s rank %d: %v", entry.Key, name, rank, err)
				}
			}
		}
		replicated := make([]*core.BulkSample, replicatedP)
		if _, err := cluster.New(replicatedP, cluster.Perlmutter()).Run(func(r *cluster.Rank) error {
			replicated[r.ID] = SampleReplicated(r, s, a, ReplicatedBatches(replicatedP, r.ID, batches), sizes, 99)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("replicated", replicated)
		for rank, got := range replicated {
			// The replicated driver runs Step, so its Cost is SampleBulk's.
			if want := core.SampleBulk(s, a, got.Batches, sizes, 99).Cost; got.Cost != want {
				t.Fatalf("%s replicated rank %d: Cost %+v, SampleBulk's %+v", entry.Key, rank, got.Cost, want)
			}
		}
		for _, pc := range [][2]int{{4, 1}, {8, 2}, {16, 2}, {16, 4}} {
			for _, aware := range []bool{true, false} {
				scheme := map[bool]string{true: "aware", false: "oblivious"}[aware]
				key := fmt.Sprintf("%s p=%d c=%d %s", entry.Key, pc[0], pc[1], scheme)
				results, res := runPartitioned(t, a, batches, pc[0], pc[1], s, sizes, aware)
				check(fmt.Sprintf("1.5D p=%d c=%d %s", pc[0], pc[1], scheme), results)
				for rank, got := range results {
					if got.Cost != (core.Cost{}) {
						t.Fatalf("%s rank %d: the 1.5D driver filled Cost %+v, want it zero", key, rank, got.Cost)
					}
				}
				if got := chargeDigest(res); got != partitionedChargePins[key] {
					t.Errorf("%s: charge digest %s, pinned %s", key, got, partitionedChargePins[key])
				}
			}
		}
	}
}

// oneDChargePins are chargeDigest of the 1D baseline's runs below,
// keyed by p, captured from the stage loop that multiplied each
// broadcast block and merged the stage products into a running sum.
// Every run must reproduce them.
var oneDChargePins = map[int]string{4: "c8a146d435b3659c", 8: "fa2da977e58c8bfb"}

// TestOneDMatchesLocal: at p = 4 and 8 the 1D baseline returns every
// rank the serial sample of its batches and charges exactly the pinned
// simulated times and bytes (oneDChargePins).
func TestOneDMatchesLocal(t *testing.T) {
	a := testGraph(150, 10, 12)
	batches := makeBatches(8, 4, 150)
	fanouts := []int{3, 2}
	for _, p := range []int{4, 8} {
		results, res := runOneD(t, a, batches, p, fanouts)
		for rank, got := range results {
			if err := sameBulk(got, core.SampleBulk(core.SAGE{}, a, got.Batches, fanouts, 99)); err != nil {
				t.Fatalf("p=%d rank %d: %v", p, rank, err)
			}
		}
		if got := chargeDigest(res); got != oneDChargePins[p] {
			t.Errorf("p=%d: charge digest %s, pinned %s", p, got, oneDChargePins[p])
		}
	}
}

func TestOneDSetCoversMatrix(t *testing.T) {
	a := testGraph(101, 6, 13)
	set := NewOneDSet(4, a)
	covered := 0
	for _, od := range set {
		covered += od.Hi - od.Lo
	}
	if covered != 101 {
		t.Fatalf("blocks cover %d of 101", covered)
	}
}

func TestOneDCommunicatesMoreThan15DAtScale(t *testing.T) {
	// The design-choice claim (Buluç & Gilbert): 1D SpGEMM traffic
	// grows with p while the 1.5D scheme's scales with c. At p=8 the
	// 1D scheme must already move more bytes than the sparsity-aware
	// 1.5D with c=2.
	a := testGraph(600, 12, 14)
	batches := makeBatches(8, 8, 600)
	fanouts := []int{3, 2}
	p := 8

	cl1 := cluster.New(p, cluster.Perlmutter())
	world := cl1.World()
	oneD := NewOneDSet(p, a)
	res1, err := cl1.Run(func(r *cluster.Rank) error {
		local := ReplicatedBatches(p, r.ID, batches)
		SampleSAGE1D(r, oneD[r.ID], world, local, fanouts, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cl2 := cluster.New(p, cluster.Perlmutter())
	g := cluster.NewGrid(cl2, p, 2)
	set := NewPartitionedSet(g, a, true)
	res2, err := cl2.Run(func(r *cluster.Rank) error {
		local := LocalBatches(g, r.ID, batches)
		SampleSAGEPartitioned(r, set[r.ID], local, fanouts, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	bytes1, bytes2 := int64(0), int64(0)
	for _, s := range res1.Ranks {
		bytes1 += s.BytesSent
	}
	for _, s := range res2.Ranks {
		bytes2 += s.BytesSent
	}
	if bytes1 <= bytes2 {
		t.Fatalf("1D (%d bytes) should exceed 1.5D (%d bytes)", bytes1, bytes2)
	}
}

// runOneD executes the 1D baseline on p ranks and returns per-rank
// results plus the cluster accounting.
func runOneD(t *testing.T, a *sparse.CSR, batches [][]int, p int, fanouts []int) ([]*core.BulkSample, *cluster.Result) {
	t.Helper()
	cl := cluster.New(p, cluster.Perlmutter())
	world := cl.World()
	set := NewOneDSet(p, a)
	results := make([]*core.BulkSample, p)
	res, err := cl.Run(func(r *cluster.Rank) error {
		results[r.ID] = SampleSAGE1D(r, set[r.ID], world, ReplicatedBatches(p, r.ID, batches), fanouts, 99)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, res
}
