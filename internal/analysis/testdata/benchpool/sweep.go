// Fixture: bench-harness code must not hand-roll concurrency — the
// worker pool (pool.go) is the package's one concurrency seam, and
// experiments reach it through runCells.
package bench

import "sync"

func handRolledFanOut(cells []int) []int {
	results := make(chan int, len(cells)) // want `channel type outside the pool seam`
	for range cells {
		go func() { // want `goroutine outside the pool seam`
			results <- 1 // want `channel send outside the pool seam`
		}()
	}
	out := make([]int, 0, len(cells))
	for range cells {
		out = append(out, <-results) // want `channel receive outside the pool seam`
	}
	return out
}

func drain(ch chan int) int { // want `channel type outside the pool seam`
	total := 0
	for v := range ch { // want `range over a channel outside the pool seam`
		total += v
	}
	select { // want `select outside the pool seam`
	default:
	}
	return total
}

func joinedFanOut(cells []func()) {
	var wg sync.WaitGroup // want `sync.WaitGroup outside the pool seam`
	for _, c := range cells {
		wg.Add(1)
		go func() { // want `goroutine outside the pool seam`
			defer wg.Done()
			c()
		}()
	}
	wg.Wait()
}

// The steered-toward shape: enumerate cells, let the pool run them.
func pooledSweep(n int) []error {
	return runCells(n, 4, func(cell int) error { return nil })
}

// An audited exception outside the seam carries a marker.
func auditedSpawn(done func()) {
	go done() //gnnvet:allow benchpool — fixture: trailing-marker form
}
