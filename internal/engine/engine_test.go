package engine

import (
	"errors"
	"testing"

	"repro/internal/cluster"
)

// chargeStage returns a stage that advances the rank by dur simulated
// seconds per item and appends the item index to got.
func chargeStage(name string, dur float64, queue int, got *[]int) Stage {
	return Stage{
		Name:  name,
		Queue: queue,
		Run: func(r *cluster.Rank, idx int, in any) (any, error) {
			r.AdvanceBy(dur)
			if got != nil {
				*got = append(*got, idx)
			}
			return idx, nil
		},
	}
}

// runOn executes p over n items on a single-rank cluster and returns
// the rank's final (max-stream) clock and phase stats.
func runOn(t *testing.T, p *Pipeline, n int) cluster.Stats {
	t.Helper()
	cl := cluster.New(1, cluster.Perlmutter())
	res, err := cl.Run(func(r *cluster.Rank) error {
		return p.Execute(r, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ranks[0]
}

func TestSequentialMakespanIsSum(t *testing.T) {
	var order []int
	p := &Pipeline{Stages: []Stage{
		chargeStage("a", 2, 1, &order),
		chargeStage("b", 1, 1, nil),
	}}
	st := runOn(t, p, 4)
	if got, want := st.Clock, 12.0; got != want {
		t.Fatalf("sequential makespan = %v, want %v", got, want)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("items out of order: %v", order)
		}
	}
}

func TestOverlapHidesProducerBehindConsumer(t *testing.T) {
	// Producer 2 s/item feeding consumer 1 s/item with a 1-slot queue:
	// the consumer finishes item i at 2(i+1)+1, so 4 items take 9 s
	// instead of the sequential 12 s.
	p := &Pipeline{
		Overlap: true,
		Stages: []Stage{
			chargeStage("a", 2, 1, nil),
			chargeStage("b", 1, 1, nil),
		},
	}
	st := runOn(t, p, 4)
	if got, want := st.Clock, 9.0; got != want {
		t.Fatalf("overlapped makespan = %v, want %v", got, want)
	}
	// The consumer's exposed waiting shows up in the stall bucket.
	if st.PhaseTotal[PhaseStall] <= 0 {
		t.Fatal("no stall time recorded despite slower producer")
	}
}

func TestOverlapBackpressuresFastProducer(t *testing.T) {
	// Producer 1 s/item feeding consumer 2 s/item with a 1-slot queue:
	// the producer may not start item i before the consumer dequeues
	// item i-1, so the consumer finishes item i at 3+2i — makespan 9 s
	// for 4 items, not 1+2·4 = 9... the bound holds exactly because
	// double buffering keeps the consumer saturated after its first
	// item.
	p := &Pipeline{
		Overlap: true,
		Stages: []Stage{
			chargeStage("a", 1, 1, nil),
			chargeStage("b", 2, 1, nil),
		},
	}
	st := runOn(t, p, 4)
	if got, want := st.Clock, 9.0; got != want {
		t.Fatalf("overlapped makespan = %v, want %v", got, want)
	}
}

func TestLargerQueueCannotSlowPipeline(t *testing.T) {
	mk := func(q int) float64 {
		p := &Pipeline{
			Overlap: true,
			Stages: []Stage{
				chargeStage("a", 1, q, nil),
				chargeStage("b", 2, q, nil),
			},
		}
		return runOn(t, p, 6).Clock
	}
	if q1, q3 := mk(1), mk(3); q3 > q1 {
		t.Fatalf("deeper queue slowed the pipeline: q=1 %v vs q=3 %v", q1, q3)
	}
}

func TestOverlapDeterministic(t *testing.T) {
	run := func() float64 {
		p := &Pipeline{
			Overlap: true,
			Stages: []Stage{
				chargeStage("a", 0.5, 2, nil),
				chargeStage("b", 0.25, 1, nil),
				chargeStage("c", 1, 1, nil),
			},
		}
		return runOn(t, p, 16).Clock
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("overlapped schedule not deterministic: %v vs %v", a, b)
	}
}

func TestThreeStageOverlapMakespan(t *testing.T) {
	// All stages equal at 1 s/item: a 3-deep pipeline over n items
	// fills in 2 s and then retires one item per second — n+2 total.
	p := &Pipeline{
		Overlap: true,
		Stages: []Stage{
			chargeStage("a", 1, 1, nil),
			chargeStage("b", 1, 1, nil),
			chargeStage("c", 1, 1, nil),
		},
	}
	st := runOn(t, p, 8)
	if got, want := st.Clock, 10.0; got != want {
		t.Fatalf("3-stage makespan = %v, want %v", got, want)
	}
}

func TestErrorPropagatesAndJoins(t *testing.T) {
	boom := errors.New("boom")
	for _, overlap := range []bool{false, true} {
		p := &Pipeline{
			Overlap: overlap,
			Stages: []Stage{
				chargeStage("a", 1, 1, nil),
				{Name: "b", Queue: 1, Run: func(r *cluster.Rank, idx int, in any) (any, error) {
					if idx == 2 {
						return nil, boom
					}
					return in, nil
				}},
				chargeStage("c", 1, 1, nil),
			},
		}
		cl := cluster.New(1, cluster.Perlmutter())
		_, err := cl.Run(func(r *cluster.Rank) error {
			return p.Execute(r, 5)
		})
		if !errors.Is(err, boom) {
			t.Fatalf("overlap=%v: error not propagated: %v", overlap, err)
		}
	}
}

func TestValuesFlowThroughStages(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		var sum int
		p := &Pipeline{
			Overlap: overlap,
			Stages: []Stage{
				{Name: "src", Queue: 2, Run: func(r *cluster.Rank, idx int, in any) (any, error) {
					return idx * 10, nil
				}},
				{Name: "inc", Queue: 2, Run: func(r *cluster.Rank, idx int, in any) (any, error) {
					return in.(int) + 1, nil
				}},
				{Name: "sink", Run: func(r *cluster.Rank, idx int, in any) (any, error) {
					sum += in.(int)
					return nil, nil
				}},
			},
		}
		cl := cluster.New(1, cluster.Perlmutter())
		if _, err := cl.Run(func(r *cluster.Rank) error { return p.Execute(r, 4) }); err != nil {
			t.Fatal(err)
		}
		if want := 0 + 1 + 10 + 1 + 20 + 1 + 30 + 1; sum != want {
			t.Fatalf("overlap=%v: sum = %d, want %d", overlap, sum, want)
		}
	}
}

func TestOverlapAcrossRanksWithCollectives(t *testing.T) {
	// Two ranks with unequal prefetch cost; the final stage all-reduces
	// on the main timeline while the producer stream prefetches. The
	// collective synchronizes the main clocks, so both ranks finish
	// together and the run is deterministic.
	run := func() (float64, float64) {
		cl := cluster.New(2, cluster.Perlmutter())
		world := cl.World()
		res, err := cl.Run(func(r *cluster.Rank) error {
			p := &Pipeline{
				Overlap: true,
				Stages: []Stage{
					{Name: "prefetch", Queue: 1, Run: func(rs *cluster.Rank, idx int, in any) (any, error) {
						rs.AdvanceBy(float64(rs.ID + 1)) // rank 1 samples slower
						return idx, nil
					}},
					{Name: "train", Run: func(rm *cluster.Rank, idx int, in any) (any, error) {
						rm.AdvanceBy(0.5)
						cluster.AllReduceSum(world, rm, []float64{1})
						return nil, nil
					}},
				},
			}
			return p.Execute(r, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ranks[0].Clock, res.Ranks[1].Clock
	}
	a0, a1 := run()
	b0, b1 := run()
	if a0 != b0 || a1 != b1 {
		t.Fatalf("cross-rank overlap not deterministic: (%v,%v) vs (%v,%v)", a0, a1, b0, b1)
	}
	if a0 != a1 {
		t.Fatalf("final collective should synchronize ranks: %v vs %v", a0, a1)
	}
}

func TestCollectiveBearingPrefetchStage(t *testing.T) {
	// A producer stage that itself drives collectives (like the 1.5D
	// partitioned sampler) runs on its own stream with its own
	// communicator clone, concurrently with the final stage's
	// collectives on the base communicator. Values stay correct, the
	// simulated makespan is deterministic, and overlap beats the
	// sequential schedule.
	run := func(overlap bool) (float64, float64) {
		cl := cluster.New(2, cluster.Perlmutter())
		world := cl.World()
		var sum float64
		res, err := cl.Run(func(r *cluster.Rank) error {
			p := &Pipeline{
				Overlap: overlap,
				Stages: []Stage{
					{
						Name:  "sample",
						Queue: 1,
						Run: func(rs *cluster.Rank, idx int, in any) (any, error) {
							rs.AdvanceBy(1)
							got := cluster.AllReduceSum(world.ForStream(rs), rs, []float64{float64(idx)})
							return got[0], nil
						},
					},
					{
						Name: "train",
						Run: func(rm *cluster.Rank, idx int, in any) (any, error) {
							rm.AdvanceBy(0.5)
							got := cluster.AllReduceSum(world.ForStream(rm), rm, []float64{in.(float64)})
							if rm.ID == 0 {
								sum += got[0]
							}
							return nil, nil
						},
					},
				},
			}
			return p.Execute(r, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime, sum
	}
	seqT, seqSum := run(false)
	ovT, ovSum := run(true)
	// Each item idx contributes 2*(2*idx): reduced across 2 ranks in
	// the sample stage, then again in the train stage.
	if want := 4.0 * (0 + 1 + 2 + 3); seqSum != want || ovSum != want {
		t.Fatalf("collective values corrupted: seq %v, overlap %v, want %v", seqSum, ovSum, want)
	}
	if ovT >= seqT {
		t.Fatalf("overlapped makespan %v not below sequential %v", ovT, seqT)
	}
	ovT2, _ := run(true)
	if ovT != ovT2 {
		t.Fatalf("overlapped collective schedule nondeterministic: %v vs %v", ovT, ovT2)
	}
}

func TestDuplicateStageNamesRejected(t *testing.T) {
	p := &Pipeline{
		Overlap: true,
		Stages: []Stage{
			chargeStage("same", 1, 1, nil),
			chargeStage("same", 1, 1, nil),
			chargeStage("sink", 1, 1, nil),
		},
	}
	cl := cluster.New(1, cluster.Perlmutter())
	_, err := cl.Run(func(r *cluster.Rank) error { return p.Execute(r, 2) })
	if err == nil {
		t.Fatal("duplicate stage names must be rejected in overlapped mode")
	}
}

func TestEmptyAndSingleStage(t *testing.T) {
	p := &Pipeline{}
	cl := cluster.New(1, cluster.Perlmutter())
	if _, err := cl.Run(func(r *cluster.Rank) error { return p.Execute(r, 1) }); err == nil {
		t.Fatal("expected error for pipeline with no stages")
	}
	p2 := &Pipeline{Overlap: true, Stages: []Stage{chargeStage("only", 1, 1, nil)}}
	st := runOn(t, p2, 3)
	if st.Clock != 3 {
		t.Fatalf("single-stage pipeline clock = %v, want 3", st.Clock)
	}
	p3 := &Pipeline{Overlap: true, Stages: []Stage{chargeStage("a", 1, 1, nil), chargeStage("b", 1, 1, nil)}}
	if err := func() error {
		cl := cluster.New(1, cluster.Perlmutter())
		_, err := cl.Run(func(r *cluster.Rank) error { return p3.Execute(r, 0) })
		return err
	}(); err != nil {
		t.Fatalf("zero items should be a no-op: %v", err)
	}
}
