// Fixture: backend.go holds the two backends — the goroutine one's
// channel, goroutine and WaitGroup use is the machinery below the
// park/wake seam, so the file (and only this file) is exempt. The stubs
// also give the fixture park-capable callees: the analyzer recognizes
// waiter.park, Queue.Send/Recv and Barrier by name in this package
// path.
package cluster

import "sync"

// waiter stubs the blocking seam.
type waiter interface {
	park()
	ready(at float64)
}

type goWaiter chan struct{}

func (w goWaiter) park()         { <-w }
func (w goWaiter) ready(float64) { w <- struct{}{} }

type goSched struct{ wg sync.WaitGroup }

func (s *goSched) spawn(fn func(waiter)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn(make(goWaiter, 1))
	}()
}

func (s *goSched) wait() { s.wg.Wait() }

// Queue stubs the backend-neutral queue.
type Queue struct{ w waiter }

func (q *Queue) Send(v int) { q.w.ready(0) }
func (q *Queue) Recv() int  { q.w.park(); return 0 }

// Barrier stubs the collective rendezvous.
func Barrier() {}
