package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// atWorkers runs scenario once per worker count the scheduler is held
// to — the serial loop (GOMAXPROCS=1) and four segments at once — and
// holds it to one simulated makespan at both.
func atWorkers(t *testing.T, scenario func(t *testing.T) float64) {
	t.Helper()
	var serial float64
	for i, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			got := scenario(t)
			if i == 0 {
				serial = got
			} else if got != serial {
				t.Fatalf("SimTime differs: %v serially vs %v at W=%d", serial, got, w)
			}
		})
	}
}

// onDES runs atWorkers under a subtest named for the scheduler
// ("des"), the level these scenarios' subtest names have always had.
func onDES(t *testing.T, scenario func(t *testing.T) float64) {
	t.Helper()
	t.Run(DESBackend.String(), func(t *testing.T) { atWorkers(t, scenario) })
}

// TestDESMismatchedCollectivesDiagnostic: the deadlock detector works
// at every worker count, and its diagnostic names the scheduler and its
// load (the DES analogue of a goroutine dump).
func TestDESMismatchedCollectivesDiagnostic(t *testing.T) {
	atWorkers(t, func(t *testing.T) float64 {
		cl := New(2, testModel())
		world := cl.World()
		msgs := make([]string, 2)
		_, err := cl.Run(func(r *Rank) (err error) {
			defer func() {
				if p := recover(); p != nil {
					msgs[r.ID] = fmt.Sprint(p)
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
		for rank, m := range msgs {
			if !strings.Contains(m, "mismatched collectives") {
				t.Fatalf("rank %d: panic lacks diagnosis: %q", rank, m)
			}
			if !strings.Contains(m, "queued events") ||
				!strings.Contains(m, "waiting for the gate") {
				t.Fatalf("rank %d: panic lacks the scheduler diagnostics: %q", rank, m)
			}
		}
		return 0
	})
}

// TestDESAbandonedCollectiveDiagnostic: poisoning a rendezvous wakes
// every parked member at every worker count, and each panics with the
// diagnostic naming the missing rank and the scheduler.
func TestDESAbandonedCollectiveDiagnostic(t *testing.T) {
	onDES(t, func(t *testing.T) float64 {
		cl := New(4, testModel())
		world := cl.World()
		msgs := make([]string, 4)
		_, err := cl.Run(func(r *Rank) (err error) {
			if r.ID == 0 {
				return nil // leaves without joining the barrier
			}
			defer func() {
				if p := recover(); p != nil {
					msgs[r.ID] = fmt.Sprint(p)
				}
			}()
			Barrier(world, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, msg := range msgs[1:] {
			if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "rank 0") ||
				!strings.Contains(msg, "queued events") {
				t.Fatalf("rank %d woke with %q", rank+1, msg)
			}
		}
		return 0
	})
}

// TestDESDeadlockNamesParkedTimelines: when no timeline can run and no
// collective waits on a finished member, the drain panics naming each
// parked timeline — rank, stream and what it waits in — ranks by id,
// each rank's timelines in creation order. Rank 0 waits in a barrier
// rank 1 never reaches: rank 1 joins a stream stuck receiving from a
// queue nobody sends on.
func TestDESDeadlockNamesParkedTimelines(t *testing.T) {
	atWorkers(t, func(t *testing.T) float64 {
		cl := New(2, testModel())
		world := cl.World()
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			_, _ = cl.Run(func(r *Rank) error {
				if r.ID == 0 {
					Barrier(world, r)
					return nil
				}
				q := NewQueue[int](1)
				r.ForkStream("consumer", func(s *Rank) { q.Recv(s) }).Join(r)
				return nil
			})
		}()
		want := `deadlock: 3 timelines parked with no pending events: ` +
			`rank 0 stream "" in barrier on comm [0 1] (dup ""); ` +
			`rank 1 stream "" in Join; rank 1 stream "consumer" in Queue.Recv`
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock diagnostic %q, want it to contain %q", msg, want)
		}
		return 0
	})
}

// TestDESQueueBackpressure: a producer stream sends only after taking
// a credit, and the main timeline returns one after each dequeue — the
// protocol that bounds every Queue — so FIFO order survives the handoff
// both ways, 10,000 items through one slot included, where every item
// parks one side. The joinFirst case joins the producer before draining
// it (under DES the stream has not even started, so the joiner parks);
// every case joins once more at the end, after the body has returned.
func TestDESQueueBackpressure(t *testing.T) {
	for _, c := range []struct {
		capacity, items int
		joinFirst       bool
	}{{2, 8, false}, {1, 10000, false}, {2, 2, true}} {
		t.Run(fmt.Sprintf("cap=%d/items=%d/joinFirst=%v", c.capacity, c.items, c.joinFirst), func(t *testing.T) {
			onDES(t, func(t *testing.T) float64 {
				cl := New(1, testModel())
				res, err := cl.Run(func(r *Rank) error {
					q := NewQueue[int](c.capacity)
					credits := NewQueue[float64](c.capacity)
					for i := 0; i < c.capacity; i++ {
						credits.Prefill(0)
					}
					sent := 0
					f := r.ForkStream("producer", func(s *Rank) {
						for i := 0; i < c.items; i++ {
							s.WaitUntil(credits.Recv(s))
							s.AdvanceBy(1e-6)
							q.Send(s, i)
							sent++
						}
					})
					if c.joinFirst {
						f.Join(r)
					}
					for i := 0; i < c.items; i++ {
						if got := q.Recv(r); got != i {
							return fmt.Errorf("item %d arrived as %d", i, got)
						}
						r.AdvanceBy(2e-6)
						credits.Send(r, r.Clock())
					}
					f.Join(r)
					if sent != c.items {
						return fmt.Errorf("Join returned with %d of %d items sent", sent, c.items)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.SimTime
			})
		})
	}
}

// TestQueueSendPastCapacityPanics: capacity is an asserted bound, and
// the panic names the protocol that keeps a queue within it.
func TestQueueSendPastCapacityPanics(t *testing.T) {
	q := NewQueue[int](1)
	q.Prefill(1)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "credit protocol") {
			t.Fatalf("Prefill past capacity: recovered %v, want a credit-protocol panic", p)
		}
	}()
	q.Prefill(2)
}
