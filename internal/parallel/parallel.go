// Package parallel provides the bounded worker pool behind every
// multi-program sweep in this repository: the §5.1 detection suite, the
// Figure 7–10 overhead sweeps, and fault-injection campaigns all shard
// independent program runs across GOMAXPROCS goroutines through it.
//
// Determinism is the design constraint: results are merged by item index,
// never by completion order, so a parallel sweep produces byte-identical
// output to the sequential one regardless of scheduling. Work items must be
// pure functions of their index (campaigns achieve this by partitioning
// their splitmix64 seed stream per run); the pool guarantees the rest:
//
//   - results land in a pre-sized slice at their own index,
//   - the reported error is the lowest-index failure, not the first to
//     happen on the clock,
//   - a panic in any item is re-raised in the caller, again lowest index
//     first, after all workers have drained.
//
// Work is distributed by an atomic cursor (work stealing), so uneven item
// costs — one hung fault-injection run, one slow kernel — never idle the
// other workers.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the effective worker count for n independent items:
// min(GOMAXPROCS, n), and at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicValue records a panic captured in a worker so it can be re-raised
// deterministically in the caller.
type panicValue struct {
	index int
	value interface{}
}

// run distributes indices [0,n) over `workers` goroutines via an atomic
// cursor and invokes item(w, i), where w identifies the executing worker
// (0..workers−1). Panics from items are captured and the lowest-index one
// re-raised after all workers drain. workers ≤ 1 runs inline on the
// caller's goroutine.
//
// done, when non-nil, is a cancellation signal: once it is closed, workers
// stop claiming new items (items already executing are interrupted only by
// their own cooperative mechanisms — see interp.RunContext). Cancellation
// never tears a merge: every claimed item either completes or records its
// own error.
func run(done <-chan struct{}, workers, n int, item func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var cursor atomic.Int64
	var panicMu sync.Mutex
	var first *panicValue
	worker := func(w int) {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					// A worker survives any number of panicking items (it
					// keeps draining the cursor), so the capture must never
					// block — a mutex-guarded min, not a bounded channel.
					if r := recover(); r != nil {
						panicMu.Lock()
						if first == nil || i < first.index {
							first = &panicValue{index: i, value: r}
						}
						panicMu.Unlock()
					}
				}()
				item(w, i)
			}()
		}
	}
	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				worker(w)
			}()
		}
		wg.Wait()
	}
	if first != nil {
		panic(first.value)
	}
}

// firstErr returns the lowest-index non-nil error, making the reported
// failure independent of completion order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map computes results[i] = fn(i) for every i in [0,n) across
// min(GOMAXPROCS, n) goroutines. All items run even if some fail; the
// returned error is the lowest-index one, so the outcome is independent of
// scheduling. The results slice always has length n, with zero values at
// failed indices.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN[T](Workers(n), n, fn)
}

// MapN is Map with an explicit worker count; workers ≤ 1 runs sequentially
// on the calling goroutine (the escape hatch for timing-sensitive sweeps).
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	run(nil, workers, n, func(_, i int) {
		results[i], errs[i] = fn(i)
	})
	return results, firstErr(errs)
}

// MapCtx is Map under a context: once ctx is cancelled, workers stop
// claiming new items and MapCtx returns after in-flight items finish. The
// returned error is the lowest-index item error, or ctx.Err() when the
// sweep was cut short with no item failing on its own. A cut-short result
// slice still has length n, with zero values at unvisited indices.
func MapCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	run(ctx.Done(), Workers(n), n, func(_, i int) {
		results[i], errs[i] = fn(i)
	})
	if err := firstErr(errs); err != nil {
		return results, err
	}
	return results, ctx.Err()
}

// MapWorkerStates is MapCtx with an explicit worker count and per-worker
// state: each worker constructs its state once via newState, threads it
// through every item it processes, and the states are returned to the
// caller in worker order. Profiling sweeps use it to run one
// profile.Collector per worker and merge the collectors' snapshots
// afterwards — since the merge is commutative, the merged profile is
// identical whatever the worker count or item placement. For the results
// to stay deterministic, an item's result must not depend on which worker
// (or after which other items) it ran. workers ≤ 1 runs sequentially on
// the calling goroutine. The states slice has one entry per effective
// worker (min(workers, n), at least 1); a newState error aborts before any
// item runs, with nil states.
func MapWorkerStates[S, T any](ctx context.Context, workers, n int, newState func() (S, error), fn func(s S, i int) (T, error)) ([]T, []S, error) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	states := make([]S, workers)
	for w := 0; w < workers; w++ {
		s, err := newState()
		if err != nil {
			return nil, nil, err
		}
		states[w] = s
	}
	results := make([]T, n)
	errs := make([]error, n)
	run(ctx.Done(), workers, n, func(w, i int) {
		results[i], errs[i] = fn(states[w], i)
	})
	if err := firstErr(errs); err != nil {
		return results, states, err
	}
	return results, states, ctx.Err()
}
