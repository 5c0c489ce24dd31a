// Package conc holds the bounded worker pool shared by the parallel
// runners: the design-space explorer, the experiment runner and Lab's
// batch path.
package conc

import "sync"

// ForEach runs fn(i) for every i in [0, n) on a bounded pool of
// `workers` goroutines and returns once every call has finished.
// workers <= 1 (or n <= 1) runs inline on the caller's goroutine.
// Callers typically have fn write into per-index slots of a pre-sized
// slice, which needs no further synchronization; any other shared
// state is fn's responsibility.
func ForEach(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
