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

// Option configures one execution (Program.Exec, Debugger.Exec) or one warm
// session (Program.Session). Options compose freely; incompatible
// combinations (e.g. WithBaseline with WithShadow) are reported as errors
// instead of being silently resolved.
type Option func(*execConfig)

type execConfig struct {
	ctx        context.Context
	shadowCfg  shadow.Config
	shadowSet  bool
	skip       []string
	limits     interp.Limits
	limitsSet  bool
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
	backendSet bool
	oracleKind oracle.Kind
	oracleSet  bool
}

// WithContext governs the run with a context: cancelling it stops the
// interpreter cooperatively within one poll interval (a few thousand
// instructions) and the run returns a structured *interp.Cancelled —
// distinct from the *interp.ResourceExhausted a budget trip produces.
// This is a per-run option (like WithLimits): pass it to Exec or
// Debugger.Exec, not Session.
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
// the run (or once per session), so prefer a Session when running many
// times with the same skip set.
func WithSkip(fns ...string) Option {
	return func(ec *execConfig) { ec.skip = append(ec.skip, fns...) }
}

// WithLimits bounds the run with a wall-clock timeout and step budget,
// reported as structured *interp.ResourceExhausted errors.
func WithLimits(lim interp.Limits) Option {
	return func(ec *execConfig) { ec.limits = lim; ec.limitsSet = true }
}

// WithInjector attaches a fault injector to the run's machine
// (interp.Machine.Injector): it corrupts values at instrumented shadow
// events, and the shadow runtime judges each corruption against its clean
// shadow. Only the events it corrupts leave the VM's fused shadow path,
// and a spent injector is not consulted for the rest of the run. The
// machine resets the injector at every attempt's start, so a
// deterministic injector replays its schedule on a degraded retry. This is
// a per-run option: pass it to Exec or Debugger.Exec.
func WithInjector(inj interp.Injector) Option {
	return func(ec *execConfig) { ec.inj = inj }
}

// WithTrace streams structured events (run lifecycle, detections,
// precision degradation) into the sink. Detection events are not capped by
// shadow.Config.MaxReports; bound memory with a bounded sink such as
// obs.NewRing. Passing nil disables a session-level sink for one run.
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
// is set) shadow-op latency. The collector persists across runs — snapshot
// it with profile.Collector.Snapshot and merge snapshots across workers
// (profile.Merge is commutative, so the merged profile is byte-identical
// whatever the worker count). Requires shadow execution.
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

// WithShadowOracle selects the shadow-arithmetic backend for the run or
// session: oracle.BigFP (arbitrary precision, the default; governed by
// shadow.Config.Precision), oracle.DD (allocation-free double-double,
// ~106 bits) or oracle.Residue (float64 estimate with per-op rounding
// residues, 53 bits). It composes with WithShadow — the oracle choice
// overrides the config's Oracle field — and requires shadow execution.
// Fixed-precision oracles do not take part in shadow-memory precision
// degradation: if a dd/residue run trips the budget, the structured
// *interp.ResourceExhausted is returned as-is.
func WithShadowOracle(kind oracle.Kind) Option {
	return func(ec *execConfig) { ec.oracleKind = kind; ec.oracleSet = true }
}

// WithBackend selects the execution engine for the run or session: the
// fused-bytecode VM (backend.VM, the default) or the tree-walking
// reference interpreter (backend.Treewalk). The two produce byte-identical
// detection reports, traces, metrics, campaign artifacts, and merged
// profiles; the VM is the fast path, the tree-walker the
// differential-testing oracle.
func WithBackend(k backend.Kind) Option {
	return func(ec *execConfig) { ec.backend = k; ec.backendSet = true }
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
	case (ec.baseline || ec.herb) && ec.oracleSet:
		return nil, fmt.Errorf("positdebug: WithShadowOracle requires shadow execution")
	case ec.sampleSet && ec.sample < 0:
		return nil, fmt.Errorf("positdebug: negative sampling stride %d", ec.sample)
	}
	if !ec.shadowSet && !ec.baseline && !ec.herb {
		ec.shadowCfg = shadow.DefaultConfig()
	}
	if ec.oracleSet {
		ec.shadowCfg.Oracle = ec.oracleKind
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
	cfg := ec.boundShadowConfig()
	emitRunStart(cfg.Events, fn, cfg.Precision)
	mod, chunks := p.shadowModule(ec.skip)
	return execShadowLoop(mod, chunks, cfg, ec, fn, cfg.Precision)
}

// shadowModule returns the module shadow runs execute and its bytecode
// cache: the Program's cached instrumentation, or a fresh one leaving the
// skipped functions uninstrumented, which has no cache (nil).
func (p *Program) shadowModule(skip []string) (*ir.Module, *chunkCache) {
	if len(skip) == 0 {
		return p.Instrumented(), &p.instChunk
	}
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	return instrument.Instrument(p.Module, instrument.Options{Skip: skipSet}), nil
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

// boundShadowConfig is the shadow configuration with the option-level
// sinks (WithTrace, WithMetrics, WithProfile) bound into it.
func (ec *execConfig) boundShadowConfig() shadow.Config {
	cfg := ec.shadowCfg
	if ec.traceSet {
		cfg.Events = ec.trace
	}
	if ec.metricsSet {
		cfg.Metrics = ec.metrics
	}
	if ec.profSet {
		cfg.Profile = ec.prof
	}
	return cfg
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

// degrade returns cfg at half its bigfp precision (floored at
// shadow.MinPrecision) when err is a shadow-memory budget trip a lower
// precision can retry, emitting the EvDegrade event. Only the bigfp oracle
// has a precision knob; a fixed-precision oracle tripping the budget
// surfaces the structured error (the server-side watchdog degrades across
// oracles instead).
func degrade(cfg shadow.Config, err error) (shadow.Config, bool) {
	var re *interp.ResourceExhausted
	if !errors.As(err, &re) || re.Resource != interp.ResShadowMemory ||
		cfg.OracleKind() != oracle.BigFP || cfg.Precision <= shadow.MinPrecision {
		return cfg, false
	}
	cfg.Precision = max(cfg.Precision/2, shadow.MinPrecision)
	if cfg.Events != nil {
		e := obs.NewEvent(obs.EvDegrade)
		e.Precision = cfg.Precision
		cfg.Events.Emit(e)
	}
	return cfg, true
}

// execShadowLoop runs the degradation loop on fresh runtimes: when a run
// exceeds the shadow-memory budget, retry at half the precision down to
// shadow.MinPrecision, flagging the result Degraded against requested (the
// warm-session retry path enters below the originally requested
// precision). Every attempt releases its machine and runtime before the
// next one starts or the result returns; nothing in a Result points into
// them, since the summary's reports are rendered strings and the output a
// copy.
func execShadowLoop(mod *ir.Module, chunks *chunkCache, cfg shadow.Config, ec *execConfig, fn string, requested uint) (*Result, error) {
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
			var retry bool
			if cfg, retry = degrade(cfg, err); retry {
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

// Session builds a warm-reusable shadow-execution session configured by
// options: WithShadow selects the configuration (default
// shadow.DefaultConfig()), WithSkip instruments with functions left out,
// and WithTrace/WithMetrics/WithProfile/WithSampling bind session-level
// sinks and the sampling stride. Baseline/Herbgrind and per-run options
// (limits, injectors, args) are rejected — pass those to Debugger.Exec.
func (p *Program) Session(opts ...Option) (*Debugger, error) {
	ec, err := buildExecConfig(opts)
	if err != nil {
		return nil, err
	}
	if ec.baseline || ec.herb {
		return nil, fmt.Errorf("positdebug: Session supports shadow execution only")
	}
	if ec.inj != nil || len(ec.args) > 0 || ec.limitsSet || ec.ctx != nil {
		return nil, fmt.Errorf("positdebug: WithInjector/WithArgs/WithLimits/WithContext are per-run options; pass them to Debugger.Exec")
	}
	cfg := ec.boundShadowConfig()
	mod, chunks := p.shadowModule(ec.skip)
	rt, err := shadow.New(mod, cfg)
	if err != nil {
		return nil, err
	}
	rt.SetSampling(ec.sample)
	m := newMachine(mod, chunks, ec.backend)
	m.Hooks = rt
	d := &Debugger{prog: p, cfg: cfg, mod: mod, rt: rt, m: m, sampleN: ec.sample}
	m.Out = &d.out
	return d, nil
}

// Exec runs the session's program on the warm runtime and machine.
// Accepted options: WithLimits, WithInjector, WithArgs, WithTrace,
// WithMetrics, WithProfile, WithSampling, WithSpans (sink-like options
// rebind the session's sinks — campaign workers point each run at its own
// buffer). Options that change the
// session's instrumentation (WithShadow, WithSkip, WithBaseline,
// WithHerbgrind) are rejected; build a new Session instead.
//
// Degraded retries run on transient runtimes at the reduced precision; the
// session itself stays at the requested precision, so one budget-tripping
// run does not degrade subsequent ones.
func (d *Debugger) Exec(fn string, opts ...Option) (*Result, error) {
	ec := &execConfig{}
	for _, o := range opts {
		o(ec)
	}
	if ec.shadowSet || ec.oracleSet || len(ec.skip) > 0 || ec.baseline || ec.herb {
		return nil, fmt.Errorf("positdebug: WithShadow/WithShadowOracle/WithSkip/WithBaseline/WithHerbgrind configure a session; build a new Session instead")
	}
	if ec.sampleSet && ec.sample < 0 {
		return nil, fmt.Errorf("positdebug: negative sampling stride %d", ec.sample)
	}
	if ec.traceSet {
		d.rt.SetEvents(ec.trace)
		d.cfg.Events = ec.trace
	}
	if ec.metricsSet {
		d.rt.SetMetrics(ec.metrics)
		d.cfg.Metrics = ec.metrics
	}
	if ec.profSet {
		d.rt.SetProfile(ec.prof)
		d.cfg.Profile = ec.prof
	}
	if ec.sampleSet {
		d.sampleN = ec.sample
		d.rt.SetSampling(ec.sample)
	}
	if ec.backendSet {
		d.m.Backend = ec.backend
	}
	// Assigned on every run, so an injector never leaks into the next one.
	d.m.Injector = ec.inj
	d.out.Reset()
	emitRunStart(d.cfg.Events, fn, d.cfg.Precision)
	sp := ec.spans.Start("shadow-exec")
	v, err := d.m.RunContext(ec.context(), fn, ec.limits, ec.args...)
	sp.End()
	flushRunMetrics(d.cfg.Metrics, d.m.Steps())
	if err != nil {
		if cfg, retry := degrade(d.cfg, err); retry {
			// Retry on transient runtimes at the reduced precision; the loop
			// carries the session's sinks (with any per-run overrides already
			// applied) and emits the closing run-end itself.
			res, err := execShadowLoop(d.mod, nil, cfg, &execConfig{
				ctx: ec.ctx, limits: ec.limits, inj: ec.inj, args: ec.args,
				sample: d.sampleN, spans: ec.spans, backend: d.m.Backend,
			}, fn, d.cfg.Precision)
			if res != nil {
				res.Degraded = true
			}
			return res, err
		}
		emitRunEnd(d.cfg.Events, "error", d.m.Steps(), d.cfg.Precision)
		return nil, err
	}
	rp := ec.spans.Start("report")
	summary := d.rt.Summary()
	rp.End()
	res := &Result{Value: v, Output: d.out.String(), Steps: d.m.Steps(), Summary: summary}
	res.ShadowOracle = d.cfg.OracleKind()
	res.ShadowPrecision = oracle.NominalPrecision(res.ShadowOracle, d.cfg.Precision)
	emitRunEnd(d.cfg.Events, "ok", d.m.Steps(), d.cfg.Precision)
	return res, nil
}
