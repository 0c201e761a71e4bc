// Fixture: a dense kernel outside matrix.go must stripe through
// ParallelRows instead of spawning its own workers.
package dense

import "sync"

func handRolledMatMul(rows int, row func(i int)) {
	var wg sync.WaitGroup // want `sync.WaitGroup outside the ParallelRows seam`
	for i := 0; i < rows; i++ {
		wg.Add(1)
		go func(i int) { // want `goroutine outside the ParallelRows seam`
			defer wg.Done()
			row(i)
		}(i)
	}
	wg.Wait()
}

// The steered-toward shape.
func stripedMatMul(rows int, row func(i int)) {
	ParallelRows(rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row(i)
		}
	})
}
