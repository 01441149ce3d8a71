package shadow

import (
	"strings"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/interp"
	"positdebug/internal/obs"
	"positdebug/internal/shadow/oracle"
)

// allocSrc exercises the whole hot path — loads, stores, binops, a call per
// iteration — without tripping any detector, so a steady-state run emits no
// reports and should therefore allocate nothing on a warm runtime.
const allocSrc = `
func scale(x: p32, f: p32): p32 {
	return x * f;
}
func main(): p32 {
	var acc: p32 = 0.0;
	var buf: [16]p32;
	var i: i64 = 0;
	while (i < 16) {
		buf[i] = scale(1.5, 0.25) + acc;
		acc = acc + buf[i];
		i = i + 1;
	}
	return acc;
}
`

// warmAllocsPerRun measures steady-state allocations of m.Run on one
// backend: warm up (growing mantissas, pools, shadow pages, and — on the
// VM — compiling and caching the bytecode chunk), then count.
func warmAllocsPerRun(t *testing.T, m *interp.Machine, k backend.Kind) float64 {
	t.Helper()
	m.Backend = k
	for i := 0; i < 3; i++ {
		if _, err := m.Run("main"); err != nil {
			t.Fatalf("%v warmup run: %v", k, err)
		}
	}
	return testing.AllocsPerRun(10, func() {
		if _, err := m.Run("main"); err != nil {
			t.Fatalf("%v run: %v", k, err)
		}
	})
}

// eachBackend runs the guard on the tree-walker and the VM. Both must hold
// the same steady-state allocation property: the register pool, chunk
// cache, and shadow structures all live on the shared Machine/Runtime, so
// reusing the pair — and even switching backends between runs — costs
// nothing at steady state.
func eachBackend(t *testing.T, f func(t *testing.T, k backend.Kind)) {
	for _, k := range backend.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// TestWarmRuntimeAllocs pins the per-run allocation count of a warm
// Runtime+Machine pair at zero on both backends: Reset reuses the
// shadow-memory trie, frame pool and quire accumulators in place, the
// interpreter pools register frames (one pool on the Machine, shared by
// tree-walk and VM runs), and the load/store/binop path only touches
// mantissa words allocated on an earlier run.
func TestWarmRuntimeAllocs(t *testing.T) {
	_, m := buildPipeline(t, allocSrc, DefaultConfig())
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		if n := warmAllocsPerRun(t, m, k); n != 0 {
			t.Errorf("warm %v shadow-execution run allocates %v/op, want 0", k, n)
		}
	})
}

// TestWarmRuntimeAllocsOracles holds the same zero-allocation property
// under the cheaper shadow oracles: a warm dd or residue runtime must not
// allocate at all on either backend — there are no mantissas to grow in
// the first place, which is exactly why the server's watchdog may degrade
// onto them under memory pressure.
func TestWarmRuntimeAllocsOracles(t *testing.T) {
	for _, kind := range []oracle.Kind{oracle.DD, oracle.Residue} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			_, m := buildPipeline(t, allocSrc, ConfigFor(kind, 0))
			eachBackend(t, func(t *testing.T, k backend.Kind) {
				if n := warmAllocsPerRun(t, m, k); n != 0 {
					t.Errorf("warm %v/%s shadow-execution run allocates %v/op, want 0", k, kind, n)
				}
			})
		})
	}
}

// TestWarmRuntimeAllocsEventsAttached: attaching an event sink and a
// metrics registry must not cost the warm path anything when no detector
// fires — events are only built on detection, and metric updates go to
// run-local counts that each run's Reset folds into histograms resolved
// on the first run. AllocsPerRun must stay at zero with tracing
// observability enabled but quiet, on both backends.
func TestWarmRuntimeAllocsEventsAttached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Events = obs.NewLog(64)
	cfg.Metrics = obs.NewRegistry()
	_, m := buildPipeline(t, allocSrc, cfg)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		if n := warmAllocsPerRun(t, m, k); n != 0 {
			t.Errorf("warm %v run with sink+metrics attached allocates %v/op, want 0", k, n)
		}
	})
}

// allocDetectSrc trips the cancellation detector every run, so each run
// emits detection events into the sink.
const allocDetectSrc = `
func main(): p32 {
	var big: p32 = 16777216.0;
	var one: p32 = 1.0;
	var x: p32 = (big + one) - big;
	return x;
}
`

// TestWarmRuntimeAllocsRingSinkBounded: with a detection-emitting program
// and a bounded log as the sink, per-run allocations stay bounded — the
// log evicts rather than grows, so a long campaign with tracing enabled has constant
// memory. The bound is deliberately loose (event construction does
// allocate strings); the property under test is boundedness, not zero.
func TestWarmRuntimeAllocsRingSinkBounded(t *testing.T) {
	ring := obs.NewLog(8)
	cfg := DefaultConfig()
	cfg.MaxReports = 1
	cfg.Events = ring
	_, m := buildPipeline(t, allocDetectSrc, cfg)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		if n := warmAllocsPerRun(t, m, k); n > 500 {
			t.Errorf("warm %v detecting run with a bounded log allocates %v/op, want bounded (<= 500)", k, n)
		}
		if ring.Len() > 8 {
			t.Errorf("ring holds %d events, cap 8", ring.Len())
		}
	})
}

// cancelLoopSrc cancels once, then once more on each of N loop
// iterations, and returns an exact value, so its only detections are
// the N+1 cancellations.
const cancelLoopSrc = `
func main(): p32 {
	var big: p32 = 16777216.0;
	var one: p32 = 1.0;
	var x: p32 = (big + one) - big;
	var i: i64 = 0;
	while (i < N) {
		x = (big + one) - big;
		i = i + 1;
	}
	return one;
}
`

// TestWarmRuntimeAllocsReportCap: detections past MaxReports with no
// event sink, OnError or BreakOn cost no allocation. A warm pair firing
// 129 cancellations per run with one report kept allocates no more per
// run than the same pair firing one: nothing formats the program and
// shadow values of a report that is not kept.
func TestWarmRuntimeAllocsReportCap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops fmt's printers at random, so the kept report's allocations vary by run")
	}
	cfg := DefaultConfig()
	cfg.MaxReports = 1
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		var allocs [2]float64
		for i, n := range []string{"0", "128"} {
			rt, m := buildPipeline(t, strings.Replace(cancelLoopSrc, "N", n, 1), cfg)
			allocs[i] = warmAllocsPerRun(t, m, k)
			if got := rt.Summary().Counts[KindCancellation]; (n == "0") != (got == 1) || got < 1 {
				t.Fatalf("the %s-iteration loop cancels %d times a run", n, got)
			}
		}
		if allocs[1] > allocs[0] {
			t.Errorf("warm %v run with 129 detections allocates %v/op, with one %v/op", k, allocs[1], allocs[0])
		}
	})
}

// TestWarmRuntimeAllocsNoTracing covers the paper's no-tracing
// configuration (Figures 8 and 10) on the same property.
func TestWarmRuntimeAllocsNoTracing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracing = false
	_, m := buildPipeline(t, allocSrc, cfg)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		if n := warmAllocsPerRun(t, m, k); n != 0 {
			t.Errorf("warm %v no-tracing run allocates %v/op, want 0", k, n)
		}
	})
}
