package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// desModel returns the test cost model pinned to the discrete-event
// backend.
func desModel() CostModel {
	m := testModel()
	m.Backend = DESBackend
	return m
}

// bothBackends runs the scenario under each backend and holds it to the
// backend contract: the same simulated makespan on both.
func bothBackends(t *testing.T, scenario func(t *testing.T, m CostModel) float64) {
	t.Helper()
	var simTime [2]float64
	for i, be := range []Backend{GoroutineBackend, DESBackend} {
		t.Run(be.String(), func(t *testing.T) {
			m := testModel()
			m.Backend = be
			simTime[i] = scenario(t, m)
		})
	}
	if simTime[0] != simTime[1] {
		t.Fatalf("SimTime differs: goroutine %v vs des %v", simTime[0], simTime[1])
	}
}

// TestBackendResolutionEnv: an unset Backend resolves through
// GNN_BACKEND, and an unparsable environment value falls back to
// goroutines instead of failing.
func TestBackendResolutionEnv(t *testing.T) {
	t.Setenv(BackendEnv, "")
	if got := New(1, testModel()).backend; got != GoroutineBackend {
		t.Fatalf("unset env resolved to %v, want goroutine", got)
	}
	t.Setenv(BackendEnv, "des")
	if got := New(1, testModel()).backend; got != DESBackend {
		t.Fatalf("GNN_BACKEND=des resolved to %v, want des", got)
	}
	t.Setenv(BackendEnv, "not-a-backend")
	if got := New(1, testModel()).backend; got != GoroutineBackend {
		t.Fatalf("bad env resolved to %v, want goroutine fallback", got)
	}
}

// TestBackendExplicitBeatsEnv: a cost model's explicit backend always
// wins over the environment, so in-process both-backend loops (the
// golden and differential tests) stay valid under CI's GNN_BACKEND=des.
func TestBackendExplicitBeatsEnv(t *testing.T) {
	t.Setenv(BackendEnv, "des")
	m := testModel()
	m.Backend = GoroutineBackend
	if got := New(1, m).backend; got != GoroutineBackend {
		t.Fatalf("explicit goroutine under env=des resolved to %v", got)
	}
	t.Setenv(BackendEnv, "goroutine")
	if got := New(1, desModel()).backend; got != DESBackend {
		t.Fatalf("explicit des under env=goroutine resolved to %v", got)
	}
}

// TestDESCollectivesMatchGoroutines: the same rank body produces
// bit-identical collective results and clocks on both backends.
func TestDESCollectivesMatchGoroutines(t *testing.T) {
	run := func(m CostModel) ([]float64, float64) {
		cl := New(8, m)
		world := cl.World()
		sums := make([]float64, 8)
		res, err := cl.Run(func(r *Rank) error {
			x := []float64{float64(r.ID + 1), float64(r.ID * r.ID)}
			sum := AllReduceSum(world, r, x)
			Barrier(world, r)
			sums[r.ID] = sum[0] + sum[1]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sums, res.SimTime
	}
	gm := testModel()
	gm.Backend = GoroutineBackend
	gSums, gTime := run(gm)
	dSums, dTime := run(desModel())
	if gTime != dTime {
		t.Fatalf("SimTime differs: goroutine %v vs des %v", gTime, dTime)
	}
	for i := range gSums {
		if gSums[i] != dSums[i] {
			t.Fatalf("rank %d sum differs: %v vs %v", i, gSums[i], dSums[i])
		}
	}
}

// TestDESMismatchedCollectivesDiagnostic: the deadlock detector works
// under DES and its diagnostic names the backend and the event-queue
// depth (the DES analogue of a goroutine dump).
func TestDESMismatchedCollectivesDiagnostic(t *testing.T) {
	cl := New(2, desModel())
	world := cl.World()
	var msgs []string // DES runs ranks one at a time: no mutex needed
	_, err := cl.Run(func(r *Rank) (err error) {
		defer func() {
			if p := recover(); p != nil {
				msgs = append(msgs, fmt.Sprint(p))
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
		if !strings.Contains(m, "backend=des") || !strings.Contains(m, "queued events") {
			t.Fatalf("panic lacks DES backend diagnostics: %q", m)
		}
	}
}

// TestDESAbandonedCollectiveDiagnostic: poisoning a rendezvous wakes
// every parked member, on both backends, and each panics with the
// diagnostic naming the missing rank and the backend.
func TestDESAbandonedCollectiveDiagnostic(t *testing.T) {
	bothBackends(t, func(t *testing.T, m CostModel) float64 {
		cl := New(4, m)
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
				!strings.Contains(msg, "backend="+m.Backend.String()) {
				t.Fatalf("rank %d woke with %q", rank+1, msg)
			}
		}
		return 0
	})
}

// TestGoroutineDiagnosticNamesBackend: the goroutine backend's
// diagnostics carry its name too, so a report always says which
// machinery was running.
func TestGoroutineDiagnosticNamesBackend(t *testing.T) {
	m := testModel()
	m.Backend = GoroutineBackend
	cl := New(2, m)
	world := cl.World()
	var msg string
	_, err := cl.Run(func(r *Rank) (err error) {
		if r.ID == 0 {
			return nil
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
	if !strings.Contains(msg, "backend=goroutine") {
		t.Fatalf("diagnostic lacks backend name: %q", msg)
	}
}

// TestDESQueueBackpressure: a Queue parks senders on a full buffer and
// receivers on an empty one, preserving FIFO order across the handoff
// between a forked producer stream and the main timeline — 10,000 items
// through one slot included, where every item parks one side. The
// joinFirst case joins the producer before draining it (under DES the
// stream has not even started, so the joiner parks); every case joins
// once more at the end, after the body has returned.
func TestDESQueueBackpressure(t *testing.T) {
	for _, c := range []struct {
		capacity, items int
		joinFirst       bool
	}{{2, 8, false}, {1, 10000, false}, {2, 2, true}} {
		t.Run(fmt.Sprintf("cap=%d/items=%d/joinFirst=%v", c.capacity, c.items, c.joinFirst), func(t *testing.T) {
			bothBackends(t, func(t *testing.T, m CostModel) float64 {
				cl := New(1, m)
				res, err := cl.Run(func(r *Rank) error {
					q := r.NewQueue(c.capacity)
					sent := 0
					f := r.ForkStream("producer", func(s *Rank) {
						for i := 0; i < c.items; i++ {
							s.AdvanceBy(1e-6)
							q.Send(s, i)
							sent++
						}
					})
					if c.joinFirst {
						f.Join(r)
					}
					for i := 0; i < c.items; i++ {
						if got := q.Recv(r).(int); got != i {
							return fmt.Errorf("item %d arrived as %d", i, got)
						}
						r.AdvanceBy(2e-6)
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

// TestGoWaiterKeepsEarlyReady: a primitive unlocks before it parks, so
// ready can land first; the goroutine waiter must not lose it.
func TestGoWaiterKeepsEarlyReady(t *testing.T) {
	w := newGoWaiter()
	w.ready(0)
	parked := make(chan struct{})
	go func() {
		w.park()
		close(parked)
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("park blocked: the ready delivered before it was lost")
	}
}
