// Package parallel provides the small worker-pool primitive the
// experiment harness uses to spread independent runs across cores, and
// the daemon to replay independent scenario logs at boot. Every
// repetition of an experiment is seeded independently (experiments.Config
// derives one RNG per run), so fan-out changes wall-clock time only —
// results stay bit-identical to the sequential order.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines
// (workers ≤ 0 = GOMAXPROCS; workers > n is clamped to n, so passing a
// huge worker count never spawns idle goroutines). It returns the first
// error by index order, running every index regardless (no short-circuit:
// experiment runs are cheap relative to the value of complete error
// reporting). A panicking task is recovered and surfaced as an error
// naming the index; it does not take down the pool.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, r)
						}
					}()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapChunked splits [0, n) into at most `workers` contiguous, disjoint
// ranges of near-equal size and runs fn(lo, hi) once per range. It is the
// fan-out shape for row-range kernels (e.g. the parallel APSP build, where
// each chunk owns a contiguous block of Dijkstra sources and its own
// scratch buffers): one chunk per worker amortizes per-task scratch
// allocation over n/workers items instead of paying it per item.
//
// Error and panic semantics match ForEach: every chunk runs, and the error
// of the lowest-indexed chunk wins. workers ≤ 0 means GOMAXPROCS;
// workers > n is clamped to n (each chunk then holds a single index).
func MapChunked(n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Spread the remainder over the first n%workers chunks so sizes differ
	// by at most one.
	size, rem := n/workers, n%workers
	bounds := make([]int, workers+1)
	for c := 0; c < workers; c++ {
		bounds[c+1] = bounds[c] + size
		if c < rem {
			bounds[c+1]++
		}
	}
	return ForEach(workers, workers, func(c int) error {
		return fn(bounds[c], bounds[c+1])
	})
}

// Map runs fn(i) for i in [0, n) concurrently and collects the results in
// index order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
