package harness

import (
	"context"
	"fmt"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/obs"
	"positdebug/internal/parallel"
	"positdebug/internal/profile"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

// ProfileOptions configures one profiling sweep (RecordProfile).
type ProfileOptions struct {
	// Kernel names the workload (PolyBench or SPEC-like set).
	Kernel string
	// N is the problem size; 0 uses a small size suitable for tests.
	N int
	// Posit refactors the FP kernel to ⟨32,2⟩ posits first (the paper's
	// methodology); false profiles the FP original under FPSanitizer.
	Posit bool
	// Runs is how many dynamic runs feed the aggregate; default 1.
	Runs int
	// Workers shards the runs; 0 means min(GOMAXPROCS, Runs). The merged
	// profile is identical whatever the worker count (commutative merge).
	Workers int
	// Sample is the shadow sampling stride (see positdebug.WithSampling);
	// ≤ 1 shadows every dynamic instance.
	Sample int
	// Timing additionally records per-instruction shadow-op latency. Wall
	// times are inherently nondeterministic, so timing profiles are not
	// byte-comparable across runs — leave false when determinism matters.
	Timing bool
	// Precision overrides the bigfp shadow precision; 0 keeps the default.
	Precision uint
	// Oracle selects the shadow-arithmetic backend (empty = bigfp).
	Oracle oracle.Kind
	// Trace, when non-nil, receives every run's events — run lifecycle,
	// detections, and causal spans (shadow-exec, report) — staged per run
	// and drained in run-index order, so the stream is deterministic under
	// any worker count. Feed it to obs.WriteChromeTrace for Perfetto.
	Trace obs.Sink
	// Backend selects the execution engine; both produce byte-identical
	// merged profiles.
	Backend backend.Kind
}

// RecordProfile runs a workload kernel Runs times under shadow execution
// with per-worker profile collectors and returns the merged per-static-
// instruction error profile. Each run is one Program.Exec; workers share
// nothing but the Program, each feeding its own Collector
// (parallel.MapWorkerStates), and the final merge is commutative, so
// sequential and parallel sweeps produce byte-identical profiles
// (profile.WriteJSON is canonical).
func RecordProfile(o ProfileOptions) (*profile.Profile, error) {
	return RecordProfileContext(context.Background(), o)
}

// RecordProfileContext is RecordProfile governed by a context — the
// fabric-worker path, where a disconnected coordinator stops the sweep
// instead of leaving it running headless.
func RecordProfileContext(ctx context.Context, o ProfileOptions) (*profile.Profile, error) {
	k, ok := workloads.KernelByName(o.Kernel)
	if !ok {
		return nil, fmt.Errorf("harness: unknown kernel %q", o.Kernel)
	}
	n := o.N
	if n <= 0 {
		n = 8
	}
	src := k.Source(n)
	arch := "f64"
	if o.Posit {
		psrc, err := positdebug.RefactorToPosit(src)
		if err != nil {
			return nil, fmt.Errorf("harness: refactor %s: %w", k.Name, err)
		}
		src = psrc
		arch = "posit32"
	}
	prog, err := positdebug.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("harness: compile %s: %w", k.Name, err)
	}
	prog.SetSourceName(k.Name)
	mod := prog.Instrumented()

	runs := o.Runs
	if runs <= 0 {
		runs = 1
	}
	workers := o.Workers
	if workers <= 0 {
		workers = parallel.Workers(runs)
	}
	sample := o.Sample
	if sample < 1 {
		sample = 1
	}
	cfg := shadow.DefaultConfig()
	cfg.Oracle = o.Oracle
	cfg.Tracing = false
	cfg.MaxReports = 4
	if o.Precision > 0 {
		cfg.Precision = o.Precision
	}

	type pstate struct {
		col  *profile.Collector
		runs int64
	}
	newState := func() (*pstate, error) {
		return &pstate{col: &profile.Collector{Timing: o.Timing}}, nil
	}
	outs, states, err := parallel.MapWorkerStates(ctx, workers, runs,
		newState, func(s *pstate, i int) ([]obs.Event, error) {
			opts := []positdebug.Option{
				positdebug.WithShadow(cfg),
				positdebug.WithProfile(s.col),
				positdebug.WithSampling(sample),
				positdebug.WithBackend(o.Backend),
			}
			var log *obs.Log
			if o.Trace != nil {
				log = &obs.Log{}
				opts = append(opts,
					positdebug.WithTrace(log),
					positdebug.WithSpans(obs.NewTracer(log)))
			}
			s.runs++
			if _, err := prog.Exec("main", opts...); err != nil {
				return nil, fmt.Errorf("harness: %s run %d: %w", k.Name, i, err)
			}
			if log == nil {
				return nil, nil
			}
			return log.Events(), nil
		})
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		for i, events := range outs {
			for _, e := range events {
				e.Run = i
				o.Trace.Emit(e)
			}
		}
	}

	key := fmt.Sprintf("%s/n=%d/%s", k.Name, n, arch)
	snaps := make([]*profile.Profile, 0, len(states))
	for _, s := range states {
		snaps = append(snaps, s.col.Snapshot(mod, key, arch, s.runs, int64(sample)))
	}
	return profile.MergeAll(snaps...)
}
