// Fixture: sparse and core kernels have no fan-out seam at all — they
// run on the calling rank's goroutine, whatever the file is named. The
// fixture loads under both package paths.
package kernels

import "sync"

type rowBlock struct{ lo, hi int }

func parallelProduct(rows int, row func(i int)) {
	var wg sync.WaitGroup          // want `sync.WaitGroup outside dense.ParallelRows`
	done := make(chan rowBlock, 2) // want `channel type outside dense.ParallelRows`
	for _, b := range []rowBlock{{0, rows / 2}, {rows / 2, rows}} {
		wg.Add(1)
		go func(b rowBlock) { // want `goroutine outside dense.ParallelRows`
			defer wg.Done()
			for i := b.lo; i < b.hi; i++ {
				row(i)
			}
			done <- b // want `channel send outside dense.ParallelRows`
		}(b)
	}
	wg.Wait()
	<-done // want `channel receive outside dense.ParallelRows`
}

// The steered-toward shape: one serial pass.
func serialProduct(rows int, row func(i int)) {
	for i := 0; i < rows; i++ {
		row(i)
	}
}
