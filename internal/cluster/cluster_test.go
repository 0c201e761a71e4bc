package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func testModel() CostModel {
	m := Perlmutter()
	return m
}

func TestRunAllRanksExecute(t *testing.T) {
	cl := New(8, testModel())
	var count int64
	_, err := cl.Run(func(r *Rank) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("executed %d ranks, want 8", count)
	}
}

func TestRunPropagatesError(t *testing.T) {
	cl := New(4, testModel())
	_, err := cl.Run(func(r *Rank) error {
		if r.ID == 2 {
			return fmt.Errorf("rank 2 failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestChargeAdvancesClockAndPhases(t *testing.T) {
	cl := New(1, testModel())
	res, err := cl.Run(func(r *Rank) error {
		r.SetPhase("a")
		r.ChargeSparse(2e10) // 1 second at 2e10 ops/s
		r.SetPhase("b")
		r.ChargeDense(1e13) // 1 second
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Phase("a")-1) > 1e-9 || math.Abs(res.Phase("b")-1) > 1e-9 {
		t.Fatalf("phases a=%v b=%v, want 1s each", res.Phase("a"), res.Phase("b"))
	}
	if math.Abs(res.SimTime-2) > 1e-9 {
		t.Fatalf("sim time %v, want 2", res.SimTime)
	}
}

func TestDeviceRatesDiffer(t *testing.T) {
	cl := New(1, testModel())
	res, _ := cl.Run(func(r *Rank) error {
		r.SetPhase("gpu")
		r.ChargeSparseOn(GPU, 1e9)
		r.SetPhase("cpu")
		r.ChargeSparseOn(CPU, 1e9)
		return nil
	})
	if res.Phase("cpu") <= res.Phase("gpu") {
		t.Fatalf("CPU (%v) should be slower than GPU (%v)", res.Phase("cpu"), res.Phase("gpu"))
	}
}

func TestBroadcastDeliversRootValue(t *testing.T) {
	cl := New(6, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		got := Broadcast(world, r, 2, r.ID*100, 8)
		if got != 200 {
			return fmt.Errorf("rank %d got %d", r.ID, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherOrdering(t *testing.T) {
	cl := New(5, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		got := AllGather(world, r, r.ID, 8)
		for i, v := range got {
			if v != i {
				return fmt.Errorf("rank %d slot %d = %d", r.ID, i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherOnlyRootReceives(t *testing.T) {
	cl := New(4, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		got := Gather(world, r, 1, r.ID+10, 8)
		if r.ID == 1 {
			if len(got) != 4 || got[3] != 13 {
				return fmt.Errorf("root got %v", got)
			}
		} else if got != nil {
			return fmt.Errorf("non-root rank %d got %v", r.ID, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterDistributesParts(t *testing.T) {
	cl := New(4, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		var parts []string
		if world.LocalIndex(r) == 0 {
			parts = []string{"a", "b", "c", "d"}
		}
		got := Scatter(world, r, 0, parts, func(s string) int { return len(s) })
		want := string(rune('a' + r.ID))
		if got != want {
			return fmt.Errorf("rank %d got %q want %q", r.ID, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllvRouting(t *testing.T) {
	cl := New(4, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		parts := make([]int, 4)
		for i := range parts {
			parts[i] = r.ID*10 + i // message from r to i
		}
		got := AllToAllv(world, r, parts, func(int) int { return 8 })
		for sender, v := range got {
			if v != sender*10+r.ID {
				return fmt.Errorf("rank %d from %d got %d", r.ID, sender, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	cl := New(6, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		x := []float64{float64(r.ID), 1}
		got := AllReduceSum(world, r, x)
		if got[0] != 15 || got[1] != 6 {
			return fmt.Errorf("rank %d got %v", r.ID, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceGenericOrdered(t *testing.T) {
	cl := New(4, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		// The reducer sees contributions and destinations in member
		// order; every member gets its own destination back.
		got := AllReduceGenericInto(world, r, fmt.Sprintf("%d", r.ID), 1, new(string),
			func(vals []string, dests []*string) {
				for _, d := range dests {
					*d = strings.Join(vals, "")
				}
			})
		if *got != "0123" {
			return fmt.Errorf("rank %d got %q", r.ID, *got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveSynchronizesClocks(t *testing.T) {
	// A straggler's clock must drag everyone to at least its entry time.
	cl := New(3, testModel())
	world := cl.World()
	res, err := cl.Run(func(r *Rank) error {
		if r.ID == 0 {
			r.ChargeDense(5e13) // 5 seconds
		}
		Barrier(world, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Ranks {
		if s.Clock < 5 {
			t.Fatalf("rank %d clock %v < straggler 5s", i, s.Clock)
		}
	}
}

func TestRepeatedCollectivesDoNotRace(t *testing.T) {
	cl := New(8, testModel())
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		for iter := 0; iter < 200; iter++ {
			got := AllGather(world, r, r.ID*1000+iter, 8)
			for i, v := range got {
				if v != i*1000+iter {
					return fmt.Errorf("iter %d: slot %d = %d", iter, i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommCostScalesWithBytes(t *testing.T) {
	cl := New(2, testModel())
	world := cl.World()
	small, _ := cl.Run(func(r *Rank) error {
		Broadcast(world, r, 0, 0, 1000)
		return nil
	})
	cl2 := New(2, testModel())
	world2 := cl2.World()
	large, _ := cl2.Run(func(r *Rank) error {
		Broadcast(world2, r, 0, 0, 1000000)
		return nil
	})
	if large.SimTime <= small.SimTime {
		t.Fatalf("1MB broadcast (%v) not slower than 1KB (%v)", large.SimTime, small.SimTime)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	model := testModel() // 4 GPUs per node
	run := func(members []int) float64 {
		cl := New(8, model)
		comm := cl.NewComm(members)
		res, err := cl.Run(func(r *Rank) error {
			if _, ok := comm.index[r.ID]; ok {
				Broadcast(comm, r, 0, 0, 1<<20)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	intra := run([]int{0, 1, 2, 3}) // one node
	inter := run([]int{0, 4})       // spans nodes, fewer members
	if intra >= inter*4 {           // inter-node β is 4x intra
		t.Fatalf("intra %v vs inter %v: tiers not applied", intra, inter)
	}
	if inter <= intra/4 {
		t.Fatalf("inter-node broadcast unexpectedly cheap: %v vs %v", inter, intra)
	}
}

func TestGridShape(t *testing.T) {
	cl := New(8, testModel())
	g := NewGrid(cl, 8, 2)
	if g.Rows != 4 {
		t.Fatalf("rows = %d, want 4", g.Rows)
	}
	if g.RowIndex(5) != 2 || g.ColIndex(5) != 1 {
		t.Fatalf("rank 5 at (%d,%d), want (2,1)", g.RowIndex(5), g.ColIndex(5))
	}
	if g.RankAt(2, 1) != 5 {
		t.Fatalf("RankAt(2,1) = %d", g.RankAt(2, 1))
	}
	if g.RowComm(5).Size() != 2 || g.ColComm(5).Size() != 4 {
		t.Fatal("sub-communicator sizes wrong")
	}
	// Row comm of rank 5 covers ranks {4, 5}.
	m := g.RowComm(5).Members()
	if m[0] != 4 || m[1] != 5 {
		t.Fatalf("row comm members %v", m)
	}
}

func TestGridBadReplicationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: c does not divide p")
		}
	}()
	cl := New(8, testModel())
	NewGrid(cl, 8, 3)
}

func TestGridCollectivesWithinRowsAndCols(t *testing.T) {
	cl := New(8, testModel())
	g := NewGrid(cl, 8, 2)
	_, err := cl.Run(func(r *Rank) error {
		// Sum of grid-row indices within a column: rows are 0..3.
		colSum := AllReduceSum(g.ColComm(r.ID), r, []float64{float64(g.RowIndex(r.ID))})
		if colSum[0] != 6 {
			return fmt.Errorf("rank %d col sum %v", r.ID, colSum[0])
		}
		rowSum := AllReduceSum(g.RowComm(r.ID), r, []float64{float64(g.ColIndex(r.ID))})
		if rowSum[0] != 1 {
			return fmt.Errorf("rank %d row sum %v", r.ID, rowSum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhaseCommAccounting(t *testing.T) {
	cl := New(2, testModel())
	world := cl.World()
	res, err := cl.Run(func(r *Rank) error {
		r.SetPhase("fetch")
		Broadcast(world, r, 0, 0, 1<<20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseComm("fetch") <= 0 {
		t.Fatal("broadcast not booked as communication")
	}
	if res.PhaseComm("fetch") > res.Phase("fetch")+1e-12 {
		t.Fatal("comm time exceeds phase time")
	}
}

func TestChargeLinkPCIe(t *testing.T) {
	cl := New(1, testModel())
	res, _ := cl.Run(func(r *Rank) error {
		r.SetPhase("uva")
		r.ChargeLink(HostLink, 20e9) // 1 second at 20 GB/s
		return nil
	})
	if math.Abs(res.Phase("uva")-1) > 0.01 {
		t.Fatalf("PCIe charge = %v, want ~1s", res.Phase("uva"))
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Fatalf("log2Ceil(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPhaseStack(t *testing.T) {
	cl := New(1, testModel())
	res, err := cl.Run(func(r *Rank) error {
		r.SetPhase("outer")
		r.PushPhase("inner")
		r.ChargeDense(1e13) // 1 second: should hit both levels
		r.PopPhase()
		r.ChargeDense(1e13) // 1 second: outer only
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Phase("outer")-2) > 1e-9 {
		t.Fatalf("outer = %v, want 2", res.Phase("outer"))
	}
	if math.Abs(res.Phase("inner")-1) > 1e-9 {
		t.Fatalf("inner = %v, want 1", res.Phase("inner"))
	}
}

func TestPhaseStackDuplicateNameNoDoubleCount(t *testing.T) {
	cl := New(1, testModel())
	res, err := cl.Run(func(r *Rank) error {
		r.SetPhase("x")
		r.PushPhase("x") // same name nested
		r.ChargeDense(1e13)
		r.PopPhase()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Phase("x")-1) > 1e-9 {
		t.Fatalf("duplicate-name stack double counted: %v", res.Phase("x"))
	}
}

func TestPopBaseLevelPanics(t *testing.T) {
	cl := New(1, testModel())
	_, err := cl.Run(func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on base-level pop")
			}
		}()
		r.PopPhase()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpCounters(t *testing.T) {
	cl := New(4, testModel())
	world := cl.World()
	res, err := cl.Run(func(r *Rank) error {
		AllReduceSum(world, r, []float64{1, 2})
		Broadcast(world, r, 0, 7, 16)
		AllToAllv(world, r, []int{0, 1, 2, 3}, func(int) int { return 8 })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Ranks[0]
	if s.OpCount["allreduce"] != 1 {
		t.Fatalf("allreduce count = %d", s.OpCount["allreduce"])
	}
	if s.OpCount["broadcast"] != 1 || s.OpBytes["broadcast"] != 16*3 {
		t.Fatalf("broadcast accounting: %+v", s.OpBytes)
	}
	if s.OpCount["alltoallv"] != 1 || s.OpBytes["alltoallv"] != 24 {
		t.Fatalf("alltoallv accounting: %+v", s.OpBytes)
	}
	// Non-root ranks do not book broadcast bytes.
	if res.Ranks[1].OpBytes["broadcast"] != 0 {
		t.Fatal("non-root booked broadcast bytes")
	}
}

func TestAllReduceSumHierMatchesFlat(t *testing.T) {
	cl := New(8, testModel()) // 2 nodes of 4
	cl.Model.Collectives.AllReduce = Hierarchical
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		x := []float64{float64(r.ID), 1, float64(r.ID * r.ID)}
		got := AllReduceSum(world, r, x)
		want := []float64{28, 8, 140}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return fmt.Errorf("rank %d slot %d: %v want %v", r.ID, i, got[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumHierSingleNodeFallback(t *testing.T) {
	cl := New(4, testModel()) // one node
	cl.Model.Collectives.AllReduce = Hierarchical
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		got := AllReduceSum(world, r, []float64{1})
		if got[0] != 4 {
			return fmt.Errorf("got %v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumHierCheaperAcrossNodes(t *testing.T) {
	// With a large payload spanning 4 nodes, the hierarchical
	// algorithm must book less simulated time than the flat one (the
	// slow tier carries node-count messages, not rank-count).
	measure := func(hier bool) float64 {
		cl := New(16, testModel()) // 4 nodes
		if hier {
			cl.Model.Collectives.AllReduce = Hierarchical
		}
		world := cl.World()
		res, err := cl.Run(func(r *Rank) error {
			x := make([]float64, 1<<16)
			for i := 0; i < 3; i++ {
				AllReduceSum(world, r, x)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	flat := measure(false)
	hier := measure(true)
	t.Logf("flat %v hier %v", flat, hier)
	if hier >= flat*1.5 {
		t.Fatalf("hierarchical much slower: %v vs %v", hier, flat)
	}
}

func TestAllReduceSumHierRepeated(t *testing.T) {
	cl := New(8, testModel())
	cl.Model.Collectives.AllReduce = Hierarchical
	world := cl.World()
	_, err := cl.Run(func(r *Rank) error {
		for i := 0; i < 50; i++ {
			got := AllReduceSum(world, r, []float64{float64(i)})
			if got[0] != float64(8*i) {
				return fmt.Errorf("iter %d: %v", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
