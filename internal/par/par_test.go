package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 237
		hits := make([]int32, n)
		For(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	For(0, 4, func(int) { t.Fatal("fn must not run for n=0") })
}

// TestMapContract pins Map's contract at several pool sizes: results
// come back in index order, every index runs even when some fail, and
// the error is the lowest failing index's, whichever worker hit a
// failure first.
func TestMapContract(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		const n = 237
		got, err := Map(n, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}

		hits := make([]int32, n)
		failing := map[int]bool{200: true, 57: true, 58: true, 236: true}
		got, err = Map(n, workers, func(i int) (int, error) {
			atomic.AddInt32(&hits[i], 1)
			if failing[i] {
				return i, fmt.Errorf("index %d: %w", i, errBoom)
			}
			return i, nil
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times with failures present", workers, i, h)
			}
		}
		if !errors.Is(err, errBoom) || err.Error() != "index 57: boom" {
			t.Errorf("workers=%d: error %v, want the lowest failing index's (57)", workers, err)
		}
		if got != nil {
			t.Errorf("workers=%d: results %v returned beside an error", workers, got)
		}
	}
	got, err := Map(0, 4, func(int) (int, error) {
		t.Fatal("fn must not run for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("n=0: got %v, %v; want no results and no error", got, err)
	}
}

var errBoom = errors.New("boom")

func TestChunksPartitionExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers, minChunk int }{
		{100, 4, 1}, {100, 4, 16}, {5, 8, 16}, {1, 8, 1}, {64, 3, 10},
	} {
		hits := make([]int32, tc.n)
		Chunks(tc.n, tc.workers, tc.minChunk, func(lo, hi int) {
			if hi-lo < 1 {
				t.Fatalf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d minChunk=%d: index %d covered %d times",
					tc.n, tc.workers, tc.minChunk, i, h)
			}
		}
	}
	Chunks(0, 4, 1, func(int, int) { t.Fatal("fn must not run for n=0") })
}

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
}
