// Fixture: packages outside the scope table are not checked — the
// cluster backends and the simulated scheduler own their concurrency
// under other analyzers.
package unscoped

import "sync"

func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
			done <- i
		}(i)
	}
	wg.Wait()
}
