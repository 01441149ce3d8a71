package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapCtxCompletesWithoutCancel(t *testing.T) {
	res, err := MapCtx(context.Background(), 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("res[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapCtxStopsClaimingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 10_000
	_, err := MapCtx(ctx, n, func(i int) (int, error) {
		if started.Add(1) == 1 {
			cancel() // first item cancels the sweep from inside
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Workers may each claim one more item racing the cancellation, but the
	// sweep must not run to completion.
	if got := started.Load(); got >= n {
		t.Fatalf("sweep ran all %d items despite cancellation", got)
	}
}

func TestMapCtxItemErrorWinsOverCtxErr(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := MapCtx(ctx, 8, func(i int) (int, error) {
		if i == 0 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the item error, got %v", err)
	}
}

func TestMapWorkerStatesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	res, _, err := MapWorkerStates(ctx, 4, 64,
		func() (int, error) { return 0, nil },
		func(s, i int) (int, error) { ran.Add(1); return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(res) != 64 {
		t.Fatalf("result slice must keep length n, got %d", len(res))
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}
