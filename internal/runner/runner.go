// Package runner executes independent experiment cells in parallel.
//
// The paper's figure grid is embarrassingly parallel: every data point
// (one transport × message-size × repetition combination) builds its
// own sim.Kernel, its own netsim fabric and its own seeded RNGs, and
// shares no mutable state with any other point. The runner fans those
// cells out across OS threads, which claim indices from one shared
// counter, and writes each result into a caller-indexed slot, so the
// reassembled output is in canonical cell order — byte-identical to a
// sequential run — at any worker count.
//
// Determinism argument: parallelism changes only *when* (in wall-clock
// terms) and *on which thread* a cell runs, never what the cell
// computes (each cell is hermetic and self-seeded) nor where its
// result lands (slot i belongs to cell i). The only cross-cell state a
// cell may touch must be an order-independent pure cache (memoized
// pure functions), which by definition returns the same value
// whichever cell fills it first.
package runner

import (
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n), using up to workers OS
// threads. fn must be safe to call concurrently for distinct i; calls
// for the same i never overlap (each index is claimed exactly once).
// With workers <= 1 (or n <= 1) everything runs inline on the caller's
// goroutine. A panic in any cell is re-raised on the caller.
func Map(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	// Workers claim ascending indices one at a time, so a slow cell
	// never strands cheaper ones behind it.
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
