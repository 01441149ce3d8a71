package positdebug

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"positdebug/internal/backend"
	"positdebug/internal/herbgrind"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// Option configures one execution (Program.Exec). Options compose freely;
// incompatible combinations (e.g. WithBaseline with WithShadow) are
// reported as errors instead of being silently resolved.
type Option func(*execConfig)

type execConfig struct {
	ctx        context.Context
	shadowCfg  shadow.Config
	shadowSet  bool
	skip       []string
	limits     interp.Limits
	inj        interp.Injector
	trace      obs.Sink
	traceSet   bool
	metrics    *obs.Registry
	metricsSet bool
	herb       bool
	herbPrec   uint
	baseline   bool
	args       []uint64
	prof       *profile.Collector
	profSet    bool
	sample     int64
	sampleSet  bool
	spans      *obs.Tracer
	backend    backend.Kind
}

// WithContext governs the run with a context: cancelling it stops the
// interpreter cooperatively within one poll interval (a few thousand
// instructions) and the run returns a structured *interp.Cancelled —
// distinct from the *interp.ResourceExhausted a budget trip produces.
func WithContext(ctx context.Context) Option {
	return func(ec *execConfig) { ec.ctx = ctx }
}

// context returns the run's governing context (Background when unset).
func (ec *execConfig) context() context.Context {
	if ec.ctx != nil {
		return ec.ctx
	}
	return context.Background()
}

// WithShadow selects shadow execution with the given configuration.
// Omitting it (and WithBaseline/WithHerbgrind) runs with
// shadow.DefaultConfig().
func WithShadow(cfg shadow.Config) Option {
	return func(ec *execConfig) { ec.shadowCfg = cfg; ec.shadowSet = true }
}

// WithSkip leaves the named functions uninstrumented — the paper's
// incremental-deployment mode (§4.1). The module is instrumented fresh for
// every run that passes a skip set.
func WithSkip(fns ...string) Option {
	return func(ec *execConfig) { ec.skip = append(ec.skip, fns...) }
}

// WithLimits bounds the run with a wall-clock timeout and step budget,
// reported as structured *interp.ResourceExhausted errors.
func WithLimits(lim interp.Limits) Option {
	return func(ec *execConfig) { ec.limits = lim }
}

// WithInjector attaches a fault injector to the run's machine
// (interp.Machine.Injector): it corrupts values at instrumented shadow
// events, and the shadow runtime judges each corruption against its clean
// shadow. Only the events it corrupts leave the VM's fused shadow path,
// and a spent injector is not consulted for the rest of the run. The
// machine resets the injector at every attempt's start, so a
// deterministic injector replays its schedule on a degraded retry.
func WithInjector(inj interp.Injector) Option {
	return func(ec *execConfig) { ec.inj = inj }
}

// WithTrace streams structured events (run lifecycle, detections,
// precision degradation) into the sink. Detection events are not capped by
// shadow.Config.MaxReports; bound memory with a bounded log,
// obs.NewLog(capacity).
func WithTrace(sink obs.Sink) Option {
	return func(ec *execConfig) { ec.trace = sink; ec.traceSet = true }
}

// WithMetrics accumulates counters and histograms into the registry:
// detections by kind, shadowed ops, per-instruction error-bits
// distributions, and executed steps. For time per source line, record a
// profile with a timing collector (WithProfile; pdprof record -timing).
func WithMetrics(reg *obs.Registry) Option {
	return func(ec *execConfig) { ec.metrics = reg; ec.metricsSet = true }
}

// WithHerbgrind selects the Herbgrind-style baseline runtime
// (per-dynamic-op trace metadata, §5.4 comparison) at the given shadow
// precision (0 means 256). The trace-node count lands in
// Result.TraceNodes.
func WithHerbgrind(precision uint) Option {
	return func(ec *execConfig) { ec.herb = true; ec.herbPrec = precision }
}

// WithBaseline runs the uninstrumented program — no shadow execution, no
// detections. Limits, tracing and metrics still apply.
func WithBaseline() Option {
	return func(ec *execConfig) { ec.baseline = true }
}

// WithArgs passes argument bit patterns to the entry function (see P32Arg,
// F64Arg and friends for encoding helpers).
func WithArgs(args ...uint64) Option {
	return func(ec *execConfig) { ec.args = append(ec.args, args...) }
}

// WithProfile accumulates per-static-instruction error statistics into the
// collector: dynamic counts, the error-bits histogram, cancellation
// severity, saturation/NaR tallies, and (when the collector's Timing flag
// is set) shadow-op latency. Runs passing the same collector accumulate
// into it, so a collector is not safe for concurrent runs — sweeps keep
// one per worker, snapshot each with profile.Collector.Snapshot and merge
// the snapshots (profile.Merge is commutative, so the merged profile is
// byte-identical whatever the worker count). Requires shadow execution.
func WithProfile(c *profile.Collector) Option {
	return func(ec *execConfig) { ec.prof = c; ec.profSet = true }
}

// WithSampling shadows every nth dynamic instance of each static compute
// instruction (binary/unary ops, casts, FMA, quire rounding) and skips the
// rest, cutting shadow overhead roughly by n at the cost of missing
// detections on skipped instances. Structural events always run, so
// metadata propagation and the output oracle stay exact. The decision is
// deterministic — (instruction id, occurrence counter), counters reset per
// run — so sampled runs are as reproducible as full ones. n ≤ 1 means full
// shadow. Requires shadow execution.
func WithSampling(n int) Option {
	return func(ec *execConfig) { ec.sample = int64(n); ec.sampleSet = true }
}

// WithBackend selects the execution engine for the run: the
// fused-bytecode VM (backend.VM, the default) or the tree-walking
// reference interpreter (backend.Treewalk). The two produce byte-identical
// detection reports, traces, metrics, campaign artifacts, and merged
// profiles; the VM is the fast path, the tree-walker the
// differential-testing oracle.
func WithBackend(k backend.Kind) Option {
	return func(ec *execConfig) { ec.backend = k }
}

// WithSpans emits causal spans (shadow-exec, report) for the run into the
// tracer — the feed behind the Chrome-trace export (obs.WriteChromeTrace).
// The tracer's sink sees span-begin/span-end events interleaved with the
// run's other events. Requires nothing special; baseline and Herbgrind
// runs emit an exec span.
func WithSpans(tr *obs.Tracer) Option {
	return func(ec *execConfig) { ec.spans = tr }
}

func buildExecConfig(opts []Option) (*execConfig, error) {
	ec := &execConfig{}
	for _, o := range opts {
		o(ec)
	}
	switch {
	case ec.baseline && ec.herb:
		return nil, fmt.Errorf("positdebug: WithBaseline conflicts with WithHerbgrind")
	case ec.baseline && ec.shadowSet:
		return nil, fmt.Errorf("positdebug: WithBaseline conflicts with WithShadow")
	case ec.herb && ec.shadowSet:
		return nil, fmt.Errorf("positdebug: WithHerbgrind conflicts with WithShadow")
	case (ec.baseline || ec.herb) && len(ec.skip) > 0:
		return nil, fmt.Errorf("positdebug: WithSkip requires shadow execution")
	case (ec.baseline || ec.herb) && ec.inj != nil:
		return nil, fmt.Errorf("positdebug: WithInjector requires shadow execution")
	case (ec.baseline || ec.herb) && (ec.profSet || ec.sampleSet):
		return nil, fmt.Errorf("positdebug: WithProfile/WithSampling require shadow execution")
	case ec.sampleSet && ec.sample < 0:
		return nil, fmt.Errorf("positdebug: negative sampling stride %d", ec.sample)
	}
	if !ec.shadowSet && !ec.baseline && !ec.herb {
		ec.shadowCfg = shadow.DefaultConfig()
	}
	// The option-level sinks override the configuration's.
	if ec.traceSet {
		ec.shadowCfg.Events = ec.trace
	}
	if ec.metricsSet {
		ec.shadowCfg.Metrics = ec.metrics
	}
	if ec.profSet {
		ec.shadowCfg.Profile = ec.prof
	}
	if ec.herb && ec.herbPrec == 0 {
		ec.herbPrec = 256
	}
	return ec, nil
}

// Exec runs the program's named function. With no options it is shadow
// execution under shadow.DefaultConfig(); options select the baseline or
// Herbgrind runtimes, pass arguments, bound the run, inject faults, and
// attach event tracing and metrics. Shadow runs always honor execution
// limits and, when shadow.Config.MaxShadowBytes is set, retry at degraded
// precision (halving down to shadow.MinPrecision) instead of failing,
// flagging the result Degraded.
func (p *Program) Exec(fn string, opts ...Option) (*Result, error) {
	ec, err := buildExecConfig(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case ec.baseline:
		return execPlain(p.Module, &p.plainChunk, ec, fn)
	case ec.herb:
		return execPlain(p.Instrumented(), &p.instChunk, ec, fn)
	}
	emitRunStart(ec.shadowCfg.Events, fn, ec.shadowCfg.Precision)
	if len(ec.skip) == 0 {
		return execShadowLoop(p.Instrumented(), &p.instChunk, ec, fn)
	}
	// Leaving functions uninstrumented takes a fresh module, which has no
	// bytecode cache.
	skip := make(map[string]bool, len(ec.skip))
	for _, s := range ec.skip {
		skip[s] = true
	}
	return execShadowLoop(instrument.Instrument(p.Module, instrument.Options{Skip: skip}), nil, ec, fn)
}

// newMachine returns a machine for mod on the backend, its memory image
// drawn from the ones finished runs released, and its bytecode from
// chunks when mod has a cache.
func newMachine(mod *ir.Module, chunks *chunkCache, k backend.Kind) *interp.Machine {
	m := interp.New(mod)
	m.Backend = k
	if k == backend.VM && chunks != nil {
		if ch := chunks.get(mod); ch != nil {
			_ = m.UseChunk(ch) // compiled from mod, so accepted
		}
	}
	return m
}

// emitRunStart/emitRunEnd bracket one execution in the event stream.
func emitRunStart(sink obs.Sink, fn string, precision uint) {
	if sink == nil {
		return
	}
	e := obs.NewEvent(obs.EvRunStart)
	e.Func = fn
	e.Precision = precision
	sink.Emit(e)
}

func emitRunEnd(sink obs.Sink, outcome string, steps int64, precision uint) {
	if sink == nil {
		return
	}
	e := obs.NewEvent(obs.EvRunEnd)
	e.Outcome = outcome
	e.Steps = steps
	e.Precision = precision
	sink.Emit(e)
}

// flushRunMetrics records the per-run interpreter-side metrics: executed
// steps and the run count.
func flushRunMetrics(reg *obs.Registry, steps int64) {
	if reg == nil {
		return
	}
	reg.Counter("pd_steps_total").Add(steps)
	reg.Counter("pd_runs_total").Inc()
}

// execPlain runs mod without the shadow runtime: uninstrumented for the
// baseline, or under the Herbgrind-style runtime, whose trace-node count
// lands in the result.
func execPlain(mod *ir.Module, chunks *chunkCache, ec *execConfig, fn string) (*Result, error) {
	m := newMachine(mod, chunks, ec.backend)
	defer m.Release()
	var herb *herbgrind.Runtime
	if ec.herb {
		herb = herbgrind.New(mod, ec.herbPrec)
		m.Hooks = herb
	}
	var out bytes.Buffer
	m.Out = &out
	emitRunStart(ec.trace, fn, ec.herbPrec)
	sp := ec.spans.Start("exec")
	v, err := m.RunContext(ec.context(), fn, ec.limits, ec.args...)
	sp.End()
	flushRunMetrics(ec.metrics, m.Steps())
	if err != nil {
		emitRunEnd(ec.trace, "error", m.Steps(), ec.herbPrec)
		return nil, err
	}
	emitRunEnd(ec.trace, "ok", m.Steps(), ec.herbPrec)
	res := &Result{Value: v, Output: out.String(), Steps: m.Steps()}
	if herb != nil {
		res.TraceNodes = herb.TraceNodes()
	}
	return res, nil
}

// execShadowLoop runs the degradation loop on fresh runtimes: when a run
// exceeds the shadow-memory budget, retry at half the precision down to
// shadow.MinPrecision, emitting EvDegrade and flagging the result
// Degraded. Only the bigfp oracle has a precision knob; a fixed-precision
// oracle tripping the budget surfaces the structured error (the
// server-side watchdog degrades across oracles instead). Every attempt
// releases its machine and runtime before the next one starts or the
// result returns; nothing in a Result points into them, since the
// summary's reports are rendered strings and the output a copy.
func execShadowLoop(mod *ir.Module, chunks *chunkCache, ec *execConfig, fn string) (*Result, error) {
	cfg := ec.shadowCfg
	requested := cfg.Precision
	for {
		rt, err := shadow.New(mod, cfg)
		if err != nil {
			return nil, err
		}
		rt.SetSampling(ec.sample)
		m := newMachine(mod, chunks, ec.backend)
		m.Hooks = rt
		m.Injector = ec.inj
		var out bytes.Buffer
		m.Out = &out
		sp := ec.spans.Start("shadow-exec")
		v, err := m.RunContext(ec.context(), fn, ec.limits, ec.args...)
		sp.End()
		steps := m.Steps()
		flushRunMetrics(cfg.Metrics, steps)
		var summary *shadow.Summary
		if err == nil {
			rp := ec.spans.Start("report")
			summary = rt.Summary()
			rp.End()
		}
		m.Release()
		rt.Release()
		if err != nil {
			var re *interp.ResourceExhausted
			if errors.As(err, &re) && re.Resource == interp.ResShadowMemory &&
				cfg.OracleKind() == oracle.BigFP && cfg.Precision > shadow.MinPrecision {
				cfg.Precision = max(cfg.Precision/2, shadow.MinPrecision)
				if cfg.Events != nil {
					e := obs.NewEvent(obs.EvDegrade)
					e.Precision = cfg.Precision
					cfg.Events.Emit(e)
				}
				continue
			}
			emitRunEnd(cfg.Events, "error", steps, cfg.Precision)
			return nil, err
		}
		res := &Result{Value: v, Output: out.String(), Steps: steps, Summary: summary}
		res.ShadowOracle = cfg.OracleKind()
		res.ShadowPrecision = oracle.NominalPrecision(res.ShadowOracle, cfg.Precision)
		res.Degraded = cfg.Precision != requested
		outcome := "ok"
		if res.Degraded {
			outcome = "degraded"
		}
		emitRunEnd(cfg.Events, outcome, steps, cfg.Precision)
		return res, nil
	}
}
