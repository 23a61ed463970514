// Package parallel provides the deterministic fan-out primitive used by every
// hot loop in the repository: a bounded worker pool whose results land at
// their input index, so output is bit-identical regardless of how the
// scheduler interleaves workers. Callers that need per-worker state (engine
// replicas, model clones) use MapWorkers, which passes a stable worker id.
//
// Determinism contract: fn must be a pure function of (i, item) plus any
// worker-local state that itself depends only on the worker id — never on
// execution order. Under that contract, Map(1, ...) and Map(n, ...) return
// identical slices.
package parallel

import (
	"runtime"
	"sync"
)

// Workers normalises a worker-count option: values <= 0 select
// runtime.GOMAXPROCS(0) (one worker per schedulable CPU), and the count is
// never larger than the number of items (n <= 0 leaves it uncapped).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. workers <= 0 selects GOMAXPROCS(0); workers == 1
// degenerates to a plain serial loop on the calling goroutine.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	return MapWorkers(workers, items, func(_, i int, item T) R { return fn(i, item) })
}

// MapWorkers is Map with a worker id passed to fn (0 <= worker < effective
// worker count), so callers can index pre-built per-worker state such as
// cloned inference engines. Items are handed out through a channel, so the
// worker that processes item i is scheduling-dependent — but the result of
// item i must not be.
func MapWorkers[T, R any](workers int, items []T, fn func(worker, i int, item T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	workers = Workers(workers, len(items))
	if workers == 1 {
		for i, item := range items {
			out[i] = fn(0, i, item)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(worker, i, items[i])
			}
		}(w)
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// ForEach runs fn for every index in [0, n) on a bounded worker pool; it is
// Map for callers that write results into their own pre-allocated storage.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
