package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// withWorkers runs f with GOMAXPROCS — and so the scheduler's worker
// count — set to w.
func withWorkers(w int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	f()
}

// TestEventQueuePopsKeyOrder is the determinism property test of the
// queue: however tasks are interleaved at push time — including many
// sharing one timestamp, and removals from the middle — they pop in
// strict (time, rank, seq) order.
func TestEventQueuePopsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		var h taskHeap
		n := 1 + rng.Intn(64)
		// A tiny time domain forces heavy timestamp collisions, the
		// regime the (rank, seq) tie-break exists for.
		times := []float64{0, 0, 1e-6, 1e-6, 2e-6}
		var tasks []*Task
		for i := 0; i < n; i++ {
			tk := &Task{key: Key{Time: times[rng.Intn(len(times))], Rank: rng.Intn(4), Seq: uint64(i)}}
			h.push(tk)
			tasks = append(tasks, tk)
		}
		removed := 0
		for _, tk := range tasks {
			if rng.Intn(4) == 0 {
				h.remove(tk)
				removed++
			}
		}
		var prev Key
		for i := 0; i < n-removed; i++ {
			got := h.pop().key
			if i > 0 && !prev.Less(got) {
				t.Fatalf("trial %d: pop %d not strictly increasing: %+v then %+v", trial, i, prev, got)
			}
			prev = got
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d tasks left after draining", trial, len(h))
		}
	}
}

// TestKeyOrdering pins the tie-breaking rule: time first, then rank,
// then sequence number.
func TestKeyOrdering(t *testing.T) {
	cases := []struct {
		a, b Key
		less bool
	}{
		{Key{1, 0, 0}, Key{2, 0, 0}, true},
		{Key{2, 0, 9}, Key{1, 5, 0}, false},
		{Key{1, 0, 9}, Key{1, 1, 0}, true},
		{Key{1, 2, 0}, Key{1, 1, 9}, false},
		{Key{1, 1, 3}, Key{1, 1, 4}, true},
		{Key{1, 1, 4}, Key{1, 1, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("Less(%+v, %+v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

// TestSchedulerRunsTasksInReadyOrder: tasks readied at one timestamp
// commit in rank order at every worker count.
func TestSchedulerRunsTasksInReadyOrder(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			s := New()
			var order []int
			tasks := make([]*Task, 8)
			for i := range tasks {
				i := i
				tasks[i] = s.Spawn(i, func(tk *Task) {
					tk.Gate()
					order = append(order, i)
				})
			}
			// Ready in scrambled order; the queue must still pop by rank.
			for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
				s.Ready(tasks[i], 0)
			}
			s.Run()
			for i, r := range order {
				if r != i {
					t.Fatalf("W=%d: tasks committed out of rank order: %v", w, order)
				}
			}
		})
	}
}

// TestSchedulerParkReady: a parked task resumes when a peer readies it,
// and values written before Ready are visible after Park returns.
func TestSchedulerParkReady(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			s := New()
			var got int
			var waiter *Task
			parked := false
			waiter = s.Spawn(0, func(tk *Task) {
				tk.Gate()
				parked = true
				tk.Park()
				if got != 42 {
					t.Errorf("W=%d: parked task woke before peer wrote: got %d", w, got)
				}
			})
			producer := s.Spawn(1, func(tk *Task) {
				tk.Gate()
				if !parked {
					t.Errorf("W=%d: rank order violated: producer committed before waiter parked", w)
				}
				got = 42
				s.Ready(waiter, 3.5)
			})
			s.Ready(waiter, 0)
			s.Ready(producer, 0)
			s.Run()
		})
	}
}

// program is one random task program: each task alternates local work
// with commit sections that log, park, ready a parked peer at a random
// time, ready itself for a later time and park, or spawn a new task.
type program struct {
	seed int64
	s    *Sched
	// Touched only inside commit sections.
	rng      *rand.Rand
	log      []string
	parked   []*Task
	runnable int // live tasks not parked
	spawned  int
}

var progTimes = []float64{0, 0, 1, 1, 2, 3}

func (p *program) task(id, steps int) func(*Task) {
	return func(t *Task) {
		for k := 0; k < steps; k++ {
			spin(id*31 + k) // rank-local work, in parallel at W > 1
			t.Gate()
			p.log = append(p.log, fmt.Sprintf("%d.%d", id, k))
			switch p.rng.Intn(5) {
			case 0: // ready a parked peer
				if len(p.parked) > 0 {
					j := p.rng.Intn(len(p.parked))
					q := p.parked[j]
					p.parked = append(p.parked[:j], p.parked[j+1:]...)
					p.runnable++
					q.Ready(progTimes[p.rng.Intn(len(progTimes))])
				}
			case 1: // park until a peer readies us, if a peer can
				if p.runnable > 1 {
					p.runnable--
					p.parked = append(p.parked, t)
					t.Park()
				}
			case 2: // start a new task
				if p.spawned < 24 {
					p.spawned++
					p.runnable++
					u := p.s.Spawn(p.rng.Intn(4), p.task(p.spawned, 1+p.rng.Intn(6)))
					u.Ready(progTimes[p.rng.Intn(len(progTimes))])
				}
			case 3: // yield: ready ourselves, then park until that event
				t.Ready(progTimes[p.rng.Intn(len(progTimes))])
				t.Park()
			}
		}
		t.Gate()
		p.log = append(p.log, fmt.Sprintf("%d.exit", id))
		p.runnable--
		if p.runnable == 0 {
			// The last runnable task wakes everyone left.
			for _, q := range p.parked {
				p.runnable++
				q.Ready(progTimes[p.rng.Intn(len(progTimes))])
			}
			p.parked = nil
		}
	}
}

// spin is local work whose length varies by task, so segments finish
// out of key order at W > 1.
func spin(n int) {
	x := 0
	for i := 0; i < (n%7)*2000; i++ {
		x += i
	}
	if x < 0 {
		panic("unreachable")
	}
	runtime.Gosched()
}

func (p *program) run() []string {
	p.s = New()
	p.rng = rand.New(rand.NewSource(p.seed))
	shape := rand.New(rand.NewSource(p.seed + 1))
	n := 2 + shape.Intn(7)
	for i := 0; i < n; i++ {
		p.spawned++
		p.runnable++
		tk := p.s.Spawn(shape.Intn(4), p.task(p.spawned, 1+shape.Intn(8)))
		p.s.Ready(tk, progTimes[shape.Intn(len(progTimes))])
	}
	p.s.Run()
	return p.log
}

// TestParallelCommitOrderMatchesSerial: random task programs log the
// same commit order at W = 2, 4 and 8 as the serial scheduler (W = 1).
func TestParallelCommitOrderMatchesSerial(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		var serial []string
		withWorkers(1, func() { serial = (&program{seed: seed}).run() })
		for _, w := range []int{2, 4, 8} {
			var got []string
			withWorkers(w, func() { got = (&program{seed: seed}).run() })
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("seed %d W=%d: commit order differs from serial\n serial %v\n got    %v", seed, w, serial, got)
			}
		}
	}
}

// TestSchedulerDeadlockPanics: tasks parked forever must crash with a
// diagnostic, not hang the loop — at every worker count.
func TestSchedulerDeadlockPanics(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			defer func() {
				p := recover()
				if msg, ok := p.(string); !ok || !strings.HasPrefix(msg, "sim: deadlock") {
					t.Fatalf("W=%d: want a sim: deadlock panic, got %v", w, p)
				}
			}()
			s := New()
			for i := 0; i < 6; i++ {
				tk := s.Spawn(i, func(tk *Task) {
					spin(i)
					tk.Gate()
					tk.Park()
				})
				s.Ready(tk, 0)
			}
			s.Run()
		})
	}
}

// TestSchedulerRethrowsTaskPanic: a panic escaping a task body must
// surface from Run on the scheduler goroutine, and peers parked waiting
// for the panicking task must not wedge it.
func TestSchedulerRethrowsTaskPanic(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			defer func() {
				if p := recover(); p == nil {
					t.Fatalf("W=%d: task panic swallowed", w)
				} else if s, ok := p.(string); !ok || s != "boom" {
					t.Fatalf("W=%d: panic value mangled: %v", w, p)
				}
			}()
			s := New()
			for i := 0; i < 6; i++ {
				tk := s.Spawn(i, func(tk *Task) {
					spin(i)
					tk.Gate()
					tk.Park() // waits for a ready that never comes
				})
				s.Ready(tk, 0)
			}
			tk := s.Spawn(7, func(tk *Task) { panic("boom") })
			s.Ready(tk, 1)
			s.Run()
		})
	}
}

// TestSchedulerDrainHook: when every live task is parked, Run hands the
// drained state to the Drain hook. A hook that readies a parked task
// lets Run go on — once per drain, here, in the order readied, and with
// the readied tasks starting only after the hook returns — a hook that
// readies nothing leaves the deadlock panic, and a trapped task panic
// is rethrown without consulting the hook.
func TestSchedulerDrainHook(t *testing.T) {
	// park spawns n tasks that register in commit order and park.
	park := func(s *Sched, n int, parked *[]*Task, woke *[]int, hookDone *bool) {
		for i := 0; i < n; i++ {
			tk := s.Spawn(i, func(tk *Task) {
				spin(i)
				tk.Gate()
				*parked = append(*parked, tk)
				tk.Park()
				if !*hookDone {
					t.Errorf("rank %d resumed before the hook returned", tk.Rank)
				}
				tk.Gate()
				*woke = append(*woke, tk.Rank)
			})
			s.Ready(tk, float64(n-i))
		}
	}
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			s := New()
			var parked []*Task
			var woke []int
			hookDone, drains := false, 0
			s.Drain = func() bool {
				drains++
				hookDone = false
				// Ready the lowest-ranked parked task, one per drain.
				best := 0
				for i, tk := range parked {
					if tk.Rank < parked[best].Rank {
						best = i
					}
				}
				parked[best].Ready(float64(drains))
				parked = append(parked[:best], parked[best+1:]...)
				hookDone = true
				return true
			}
			park(s, 6, &parked, &woke, &hookDone)
			s.Run()
			if drains != 6 || !reflect.DeepEqual(woke, []int{0, 1, 2, 3, 4, 5}) {
				t.Fatalf("W=%d: %d drains woke %v, want 6 waking ranks 0..5 in order", w, drains, woke)
			}
		})
		withWorkers(w, func() {
			defer func() {
				if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "sim: deadlock") {
					t.Fatalf("W=%d: want a sim: deadlock panic, got %v", w, msg)
				}
			}()
			s := New()
			var parked []*Task
			var woke []int
			hookDone := true
			s.Drain = func() bool { return false }
			park(s, 6, &parked, &woke, &hookDone)
			s.Run()
		})
		withWorkers(w, func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("W=%d: want the task panic, got %v", w, p)
				}
			}()
			s := New()
			var parked []*Task
			var woke []int
			hookDone := true
			s.Drain = func() bool {
				t.Errorf("W=%d: hook consulted despite a trapped panic", w)
				return false
			}
			park(s, 6, &parked, &woke, &hookDone)
			tk := s.Spawn(7, func(tk *Task) { panic("boom") })
			s.Ready(tk, 1)
			s.Run()
		})
	}
}
