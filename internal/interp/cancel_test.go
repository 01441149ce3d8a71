package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"positdebug/internal/backend"
)

// TestCancelStopsHotLoop is the cancellation-propagation guarantee: a
// context cancelled while an unbounded hot loop executes stops the
// interpreter promptly (one poll interval, not the step budget) and
// surfaces a structured *Cancelled with breadcrumbs — never the
// *ResourceExhausted a budget trip would produce.
func TestCancelStopsHotLoop(t *testing.T) {
	mod := compile(t, `func f(): i64 { var i: i64 = 0; while (true) { i += 1; } return i; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.MaxSteps = 1 << 62 // budgets out of the way: only the context can stop this
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := m.RunContext(ctx, "f", Limits{})
		elapsed := time.Since(start)

		var c *Cancelled
		if !errors.As(err, &c) {
			t.Fatalf("want *Cancelled, got %v", err)
		}
		if c.Func != "f" || c.Steps == 0 {
			t.Fatalf("missing breadcrumbs: %#v", c)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want errors.Is(err, context.Canceled), got %v", err)
		}
		var re *ResourceExhausted
		if errors.As(err, &re) {
			t.Fatalf("cancellation must not be a *ResourceExhausted: %v", err)
		}
		// "Promptly": generous bound for race/CI machines, but far below any
		// plausible full-budget runtime.
		if elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v; hot loop did not stop promptly", elapsed)
		}
	})
}

// TestCancelBeforeRun: an already-cancelled context fails fast without
// executing a single instruction.
func TestCancelBeforeRun(t *testing.T) {
	mod := compile(t, `func f(): i64 { return 1; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := m.RunContext(ctx, "f", Limits{})
		var c *Cancelled
		if !errors.As(err, &c) {
			t.Fatalf("want *Cancelled, got %v", err)
		}
		if m.Steps() != 0 {
			t.Fatalf("executed %d steps under a pre-cancelled context", m.Steps())
		}
	})
}

// TestDeadlineContext: a context deadline surfaces as *Cancelled wrapping
// context.DeadlineExceeded — distinct from the wall-clock Limits budget,
// which stays a *ResourceExhausted.
func TestDeadlineContext(t *testing.T) {
	mod := compile(t, `func f(): i64 { var i: i64 = 0; while (true) { i += 1; } return i; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.MaxSteps = 1 << 62
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := m.RunContext(ctx, "f", Limits{})
		var c *Cancelled
		if !errors.As(err, &c) {
			t.Fatalf("want *Cancelled, got %v", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want errors.Is(err, context.DeadlineExceeded), got %v", err)
		}
	})
}

// TestCancelMachineReusable: a cancelled machine runs again cleanly, and a
// later context-free run is not haunted by the stale Done channel.
func TestCancelMachineReusable(t *testing.T) {
	mod := compile(t, `func f(n: i64): i64 { var s: i64 = 0; for (var i: i64 = 0; i < n; i += 1) { s += i; } return s; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := m.RunContext(ctx, "f", Limits{}, 10); err == nil {
			t.Fatal("want cancellation error")
		}
		v, err := m.RunWithLimits("f", Limits{}, 10)
		if err != nil {
			t.Fatalf("machine unusable after cancellation: %v", err)
		}
		if v != 45 {
			t.Fatalf("want 45, got %d", v)
		}
	})
}
