package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDupIdentity pins the clone-sharing contract: one clone per key,
// shared by all callers; the empty key is the base; Dup on a clone
// delegates to its base.
func TestDupIdentity(t *testing.T) {
	cl := New(2, testModel())
	world := cl.World()
	if world.Dup("") != world {
		t.Fatal("empty key must return the base communicator")
	}
	a, b := world.Dup("sampling"), world.Dup("sampling")
	if a == world {
		t.Fatal("clone must be distinct from the base")
	}
	if a != b {
		t.Fatal("same key must return the same clone")
	}
	if a.Dup("sampling") != a {
		t.Fatal("Dup on a clone must delegate to the base (same key, same clone)")
	}
	if a.Dup("") != world {
		t.Fatal("Dup(\"\") on a clone must return the base")
	}
	if c := world.Dup("fetch"); c == a {
		t.Fatal("different keys must get different clones")
	}
	if got, want := a.Size(), world.Size(); got != want {
		t.Fatalf("clone size %d, want %d", got, want)
	}
}

// TestStreamClonesIsolateCollectives drives one communicator's base
// from every rank's main timeline and a clone from a forked stream of
// every rank, concurrently, with different collective sequences. The
// clones' private rendezvous keep the sequences from interleaving, and
// both deliver correct values.
func TestStreamClonesIsolateCollectives(t *testing.T) {
	bothBackends(t, func(t *testing.T, model CostModel) float64 {
		run := func() ([]float64, []float64, float64) {
			cl := New(4, model)
			world := cl.World()
			var mainOut, streamOut []float64
			res, err := cl.Run(func(r *Rank) error {
				f := r.ForkStream("prefetch", func(s *Rank) {
					// The stream's sequence: barrier, then all-reduce.
					sc := world.ForStream(s)
					Barrier(sc, s)
					got := AllReduceSum(sc, s, []float64{float64(10 * s.ID)})
					if s.ID == 0 {
						streamOut = got
					}
				})
				// The main sequence: two all-reduces, no barrier.
				got := AllReduceSum(world.ForStream(r), r, []float64{float64(r.ID)})
				got2 := AllReduceSum(world, r, got)
				if r.ID == 0 {
					mainOut = got2
				}
				f.Join(r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return mainOut, streamOut, res.SimTime
		}
		mainOut, streamOut, simA := run()
		if len(mainOut) != 1 || mainOut[0] != 24 { // sum(0..3) reduced twice: 6*4
			t.Fatalf("main collective corrupted: %v", mainOut)
		}
		if len(streamOut) != 1 || streamOut[0] != 60 { // 10*(0+1+2+3)
			t.Fatalf("stream collective corrupted: %v", streamOut)
		}
		_, _, simB := run()
		if simA != simB {
			t.Fatalf("stream collectives nondeterministic: %v vs %v", simA, simB)
		}
		return simA
	})
}

// TestMismatchedCollectivesPanic: two members calling different
// collectives on the same communicator is a deadlock in real MPI; the
// rendezvous must detect it and panic every participant with a
// diagnostic rather than hang.
func TestMismatchedCollectivesPanic(t *testing.T) {
	cl := New(2, testModel())
	world := cl.World()
	var mu sync.Mutex
	var msgs []string
	_, err := cl.Run(func(r *Rank) (err error) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				msgs = append(msgs, fmt.Sprint(p))
				mu.Unlock()
			}
		}()
		if r.ID == 0 {
			Barrier(world, r)
		} else {
			AllReduceSum(world, r, []float64{1})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("want both ranks to panic, got %d panics: %v", len(msgs), msgs)
	}
	for _, m := range msgs {
		if !strings.Contains(m, "mismatched collectives") {
			t.Fatalf("panic lacks diagnosis: %q", m)
		}
	}
}

// TestAbandonedCollectivePanics: a rank body returning while a peer
// waits in a collective can never satisfy it; the detector must poison
// the rendezvous instead of hanging the run.
func TestAbandonedCollectivePanics(t *testing.T) {
	cl := New(2, testModel())
	world := cl.World()
	var msg string
	_, err := cl.Run(func(r *Rank) (err error) {
		if r.ID == 0 {
			return nil // leaves without joining the barrier
		}
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		Barrier(world, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "rank 0") {
		t.Fatalf("deadlock not diagnosed: %q", msg)
	}
}

// TestDriverBindingsResetAcrossRuns: stream bindings are per-Run
// state — a second Run on the same cluster may legitimately drive a
// communicator from a differently-named stream than the first without
// tripping the two-streams check.
func TestDriverBindingsResetAcrossRuns(t *testing.T) {
	bothBackends(t, func(t *testing.T, model CostModel) float64 {
		cl := New(2, model)
		world := cl.World()
		// First run: base comm driven from the main timeline.
		if _, err := cl.Run(func(r *Rank) error {
			Barrier(world, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Second run: the same comm driven only from a forked stream.
		res, err := cl.Run(func(r *Rank) error {
			r.ForkStream("prefetch", func(s *Rank) {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("cross-run driver binding leaked: %v", p)
					}
				}()
				Barrier(world, s)
			}).Join(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	})
}

// TestTwoStreamsOneCommPanics: the invariant that a communicator is
// driven by at most one stream of each member rank is enforced, with a
// panic pointing at ForStream/Dup.
func TestTwoStreamsOneCommPanics(t *testing.T) {
	bothBackends(t, func(t *testing.T, model CostModel) float64 {
		cl := New(1, model)
		world := cl.World()
		var msg string
		res, err := cl.Run(func(r *Rank) error {
			Barrier(world, r) // binds the base comm to the main timeline
			r.ForkStream("prefetch", func(s *Rank) {
				defer func() { msg = fmt.Sprint(recover()) }()
				Barrier(world, s) // same comm from a second stream
			}).Join(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(msg, "two streams") || !strings.Contains(msg, "ForStream") {
			t.Fatalf("driver violation not diagnosed: %q", msg)
		}
		return res.SimTime
	})
}
