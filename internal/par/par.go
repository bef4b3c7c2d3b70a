// Package par holds the module's only data-parallel worker pools: every
// loop that spreads independent items over goroutines and gathers the
// results back runs on For, Chunks or Map. Work is handed out through
// an atomic counter, so the assignment of items to goroutines is
// unspecified — callers obtain deterministic results by writing into
// pre-sized, index-addressed output slices and assembling them in index
// order after the pool drains, which Map does for them.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values above zero are
// returned unchanged, anything else becomes GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines
// (0 means GOMAXPROCS). fn must be safe for concurrent invocation;
// which goroutine runs which index is unspecified. With one worker (or
// n <= 1) everything runs inline on the calling goroutine.
func For(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn(i) for every i in [0, n) on For's pool and returns the
// results in index order. Every index runs, even after one fails; when
// any fails, Map returns nil and the error of the lowest failing index,
// so the error does not depend on scheduling either.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(n, workers, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Chunks splits [0, n) into contiguous spans of roughly minChunk or
// more indexes (the final span may come up slightly short) and runs
// fn(lo, hi) for each span on at most workers goroutines. Per-span
// setup (scratch buffers, recognizers) amortizes over the span, which
// is why the hot evaluation loops prefer Chunks over For. A minChunk
// of 0 means 1.
func Chunks(n, workers, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers = Workers(workers)
	spans := workers
	// floor(n/minChunk) spans at most, so no span falls below minChunk
	// (except the single span covering an n smaller than minChunk).
	if max := n / minChunk; spans > max {
		spans = max
	}
	if spans <= 1 {
		fn(0, n)
		return
	}
	size := (n + spans - 1) / spans
	For(spans, workers, func(s int) {
		lo := s * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			fn(lo, hi)
		}
	})
}
