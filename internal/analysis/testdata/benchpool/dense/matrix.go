// Fixture: matrix.go is dense's one fan-out seam — ParallelRows is the
// module's kernel fan-out, so its goroutines and WaitGroup are exempt.
package dense

import "sync"

func ParallelRows(rows int, f func(lo, hi int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			f(lo, lo+1)
		}(lo)
	}
	wg.Wait()
}
