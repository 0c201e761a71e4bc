// Package freelist is the process's one kind of buffer pool: a plain,
// mutex-guarded list of values that a run takes and gives back, so the
// next run (a perf repetition, a sweep cell, a restart attempt, a later
// epoch) adopts memory instead of allocating and zeroing it afresh.
//
// It is a plain list, not a sync.Pool: a sync.Pool is emptied by every
// garbage collection, and the simulator forces one before each attempt
// (pipeline.Train) — the reuse has to survive exactly that boundary. A
// list holds at most what was live at once, so it costs a process no
// more than its busiest moment did.
//
// A value must be put back only once its last reader is done with it;
// the list itself never looks inside.
package freelist

import "sync"

// List is a LIFO of reusable values, safe for concurrent use. The zero
// List is empty and ready to use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Take removes and returns the most recently put value; ok is false
// when the list is empty.
func (l *List[T]) Take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// Put hands x to a later Take.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}
