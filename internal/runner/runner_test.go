package runner

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapEachIndexOnce checks the core contract at many shapes: every
// index in [0, n) runs exactly once, whatever the worker count.
func TestMapEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{0, 10}, {1, 10}, {2, 10}, {4, 10}, {10, 10}, {64, 10},
		{4, 0}, {4, 1}, {4, 3}, {3, 1000}, {8, 1000},
	} {
		counts := make([]int32, tc.n)
		Map(tc.workers, tc.n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}

// TestMapInlineOrder checks that the sequential path (workers <= 1)
// runs cells in ascending index order on the calling goroutine.
func TestMapInlineOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var got []int
		Map(workers, 5, func(i int) { got = append(got, i) })
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: order %v", workers, got)
			}
		}
		if len(got) != 5 {
			t.Fatalf("workers=%d: ran %d of 5", workers, len(got))
		}
	}
}

// TestMapStealing forces an imbalanced load — the first eighth of the
// indices is much slower than the rest — and checks that every index
// runs exactly once; a lost index would hang or fail the count.
func TestMapStealing(t *testing.T) {
	const n = 256
	var ran atomic.Int32
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	Map(4, n, func(i int) {
		if i < n/8 {
			// Simulate a heavy cell with real work (spinning on atomics
			// keeps the race detector engaged).
			for j := 0; j < 2000; j++ {
				ran.Load()
			}
		}
		mu.Lock()
		if seen[i] {
			mu.Unlock()
			t.Errorf("index %d ran twice", i)
			return
		}
		seen[i] = true
		mu.Unlock()
		ran.Add(1)
	})
	if ran.Load() != n {
		t.Fatalf("ran %d of %d", ran.Load(), n)
	}
}

// TestMapPanicPropagates checks that a cell panic reaches the caller
// after all workers have retired.
func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Map(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("Map returned instead of panicking")
}
