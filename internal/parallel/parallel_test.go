package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	max := runtime.GOMAXPROCS(0)
	if w := Workers(10 * max); w != max {
		t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", 10*max, w, max)
	}
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		res, err := MapN(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(res))
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	res, err := Map(0, func(i int) (int, error) {
		t.Fatal("fn must not run for n=0")
		return 0, nil
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("Map(0): res=%v err=%v", res, err)
	}
}

// TestMapLowestIndexError: the reported error must be the lowest-index
// failure regardless of which worker finished first, and all items must
// still run.
func TestMapLowestIndexError(t *testing.T) {
	var ran atomic.Int64
	_, err := MapN(4, 50, func(i int) (int, error) {
		ran.Add(1)
		if i%10 == 3 { // fails at 3, 13, 23, 33, 43
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("error = %v, want lowest-index failure (item 3)", err)
	}
	if n := ran.Load(); n != 50 {
		t.Fatalf("only %d of 50 items ran", n)
	}
}

// TestPanicPropagation: a panic in any item is re-raised in the caller,
// lowest index first when several panic.
func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				if s, ok := r.(string); !ok || s != "boom 7" {
					t.Fatalf("workers=%d: recovered %v, want lowest-index panic 'boom 7'", workers, r)
				}
			}()
			MapN(workers, 30, func(i int) (int, error) {
				if i == 7 || i == 21 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i, nil
			})
		}()
	}
}

// TestMapWorkerState: every invocation must see the state built for its
// worker, exactly `workers` states are constructed, and they come back in
// worker order.
func TestMapWorkerState(t *testing.T) {
	var built atomic.Int64
	type state struct{ id int64 }
	const workers = 4
	res, states, err := MapWorkerStates(context.Background(), workers, 200, func() (*state, error) {
		return &state{id: built.Add(1)}, nil
	}, func(s *state, i int) (int64, error) {
		if s == nil || s.id < 1 || s.id > built.Load() {
			return 0, fmt.Errorf("item %d got bad state %+v", i, s)
		}
		return s.id, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() != workers || len(states) != workers {
		t.Fatalf("built %d states and returned %d, want %d", built.Load(), len(states), workers)
	}
	for w, s := range states {
		if s.id != int64(w+1) {
			t.Fatalf("state %d has id %d; states must come back in worker order", w, s.id)
		}
	}
	for i, id := range res {
		if id < 1 {
			t.Fatalf("item %d ran without a state", i)
		}
	}
}

func TestMapWorkerNewStateError(t *testing.T) {
	sentinel := errors.New("no state")
	ran := false
	_, states, err := MapWorkerStates(context.Background(), 2, 10, func() (int, error) { return 0, sentinel },
		func(s, i int) (int, error) { ran = true; return 0, nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want newState error", err)
	}
	if states != nil {
		t.Fatalf("states = %v on a newState error, want nil", states)
	}
	if ran {
		t.Fatal("items must not run when newState fails")
	}
}

// TestSequentialInline: workers ≤ 1 must run on the calling goroutine (the
// timing-sweep escape hatch) — observable because goroutine-local state
// like the goroutine ID is awkward to check, so assert via execution order
// instead: a single worker consumes the cursor strictly in order.
func TestSequentialInline(t *testing.T) {
	var order []int
	MapN(1, 10, func(i int) (int, error) { order = append(order, i); return i, nil })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential run out of order: %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10", len(order))
	}
}
