package shadow

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"time"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow/oracle"
)

// Config controls the shadow runtime.
type Config struct {
	// Oracle selects the shadow-arithmetic backend: oracle.BigFP
	// (arbitrary precision, governed by Precision), oracle.DD
	// (allocation-free double-double, ~106 bits) or oracle.Residue
	// (float64 estimate + per-op rounding residues, 53 bits). The zero
	// value also selects BigFP (oracle.Parse), so an oracle name missing
	// from pre-oracle JSON configs keeps meaning bigfp.
	Oracle oracle.Kind
	// Precision is the bigfp oracle's mantissa precision in bits (the
	// paper evaluates 128, 256 and 512; 256 is the default). Other
	// oracles have fixed precision and ignore it.
	Precision uint
	// Tracing enables the DAG metadata (operand pointers, lock-and-key,
	// timestamps). Disabling it reproduces the paper's "no tracing"
	// configuration (Figures 8 and 10): errors are still detected from the
	// shadow values, but no instruction DAGs can be produced.
	Tracing bool
	// ErrBitsThreshold is the per-operation error (in double-ULP bits,
	// §4.2) at which an otherwise-unclassified result is reported. The
	// paper's prototype reads this from an environment variable.
	ErrBitsThreshold int
	// OutputThreshold is the error at which printed/returned values are
	// reported as wrong outputs.
	OutputThreshold int
	// PrecisionLossThreshold is the number of fraction bits an operation
	// must lose (while growing its regime) to be reported.
	PrecisionLossThreshold int
	// MaxReports caps the number of detailed reports kept (counts are
	// always complete; OnError, BreakOn and Events see every detection).
	MaxReports int
	// MaxDAGDepth caps DAG traversal depth (0 uses the default of 16).
	MaxDAGDepth int
	// MaxShadowBytes budgets the estimated shadow-memory footprint
	// (0 = unlimited). The estimate scales with Precision, so a run that
	// trips the budget can be retried at a lower precision with the same
	// budget — the graceful-degradation path campaign runners rely on.
	// When the budget is exceeded the runtime raises a structured
	// *interp.ResourceExhausted (resource "shadow-memory") that
	// Machine.Run returns as an error.
	MaxShadowBytes int64
	// OnError, when set, is invoked synchronously for each report — the
	// library equivalent of the paper's gdb conditional breakpoints.
	OnError func(*Report)
	// BreakOn, when set and returning true for a report, halts execution
	// at the offending instruction: Machine.Run returns *interp.Stopped
	// carrying the report. This is the paper's "conditional breakpoint
	// depending on the amount of the error" workflow as a library API.
	BreakOn func(*Report) bool
	// Events, when set, receives one obs.EvDetect event per detection —
	// uncapped by MaxReports (use a bounded sink such as obs.NewLog(n) to
	// bound memory). Events carry no timestamps, so the stream is
	// deterministic.
	Events obs.Sink
	// Metrics, when set, receives counters and histograms: detections by
	// kind (pd_detections_total{kind=...}), shadowed ops
	// (pd_shadow_ops_total), the per-operation error-bits distribution
	// (pd_op_err_bits) and its per-instruction breakdown
	// (pd_inst_err_bits{inst=...}). Detections are counted as they happen;
	// ops and error bits are counted run-locally and added at the end of
	// each attempt (Release, Summary or the next Reset).
	Metrics *obs.Registry
	// Profile, when set, accumulates per-static-instruction error
	// statistics (error-bits histogram, cancellation severity,
	// saturation/NaR tallies) across runs — the numerical-error profiler's
	// feed. The collector is not reset between runs; snapshot and merge it
	// from the caller (see internal/profile).
	Profile *profile.Collector
}

// DefaultConfig mirrors the paper's default setup: 256-bit bigfp shadow
// execution with tracing enabled.
func DefaultConfig() Config {
	return Config{
		Oracle:                 oracle.BigFP,
		Precision:              256,
		Tracing:                true,
		ErrBitsThreshold:       45,
		OutputThreshold:        35,
		PrecisionLossThreshold: 10,
		MaxReports:             32,
		MaxDAGDepth:            16,
	}
}

// ConfigFor returns DefaultConfig retargeted at the given oracle backend.
// precision applies to the bigfp oracle only; 0 keeps the 256-bit default.
func ConfigFor(kind oracle.Kind, precision uint) Config {
	c := DefaultConfig()
	c.Oracle = kind
	if precision != 0 {
		c.Precision = precision
	}
	return c
}

// OracleKind normalizes the configured oracle (empty selects BigFP).
func (c Config) OracleKind() oracle.Kind {
	k, err := oracle.Parse(string(c.Oracle))
	if err != nil {
		return c.Oracle
	}
	return k
}

const maxLockDepth = 1100

// Runtime implements interp.Hooks: the PositDebug runtime when the program
// computes in posits, and the FPSanitizer runtime when it computes in IEEE
// floats. One instance serves one machine at a time.
type Runtime struct {
	mod *ir.Module
	cfg Config
	orc oracle.Oracle

	frames  []*shadowFrame
	pool    []*shadowFrame
	locks   [maxLockDepth]uint64
	lockTop int
	nextKey uint64
	now     uint64

	mem       *shadowMem
	argStack  []TempMeta
	retMeta   TempMeta
	retValid  bool
	flipEpoch uint32

	// pendInj records a corruption a fault injector just applied to the
	// value the next hook event delivers (see interp.InjectionObserver).
	pendInj struct {
		valid         bool
		id            int32
		op            ir.Op
		before, after uint64
	}

	quires map[ir.Type]*shadowQuire

	counts        [KindWrongOutput + 1]int // detections by kind
	reports       []*Report
	totalOps      uint64
	flushedOps    uint64
	maxOpErr      int
	outputMaxErr  int
	branchFlips   int
	uninstrWrites uint64

	// Scratch big.Floats bridging oracle values into the 768-bit shadow
	// quire (and one for the shadow fused product), so quire-carrying
	// programs stay allocation-free on the warm path.
	qsA, qsB, qProd big.Float
	// cpVals gathers SaveCheckpoint's shadow values before they are
	// copied out.
	cpVals valStore

	// Observability bindings (see Config.Events / Config.Metrics). Metric
	// pointers are resolved once in New. checkOp observes into the
	// run-local opErr and instErr (by instruction id) without atomics;
	// foldMetrics adds them to the registry once per attempt.
	events     obs.Sink
	reg        *obs.Registry
	metOps     *obs.Counter
	metDet     [KindWrongOutput + 1]*obs.Counter
	metErrHist *obs.Histogram
	opErr      obs.HistCounts
	instErr    []*instErrCounts

	// prof, when non-nil, receives per-instruction error statistics from
	// checkOp (see Config.Profile).
	prof *profile.Collector

	// Sampled shadow execution (SetSampling): sample is the stride and
	// occur the per-static-id occurrence counters, reset every run.
	// timing caches prof.Timing at run start, so an untimed run pays one
	// bool test per compute event for latency timing.
	sample int64
	occur  []int64
	timing bool
}

// shadowQuire mirrors the program's quire with a wide accumulator; 768
// mantissa bits exceed the exact range of ⟨32,2⟩ products (481 bits), so
// the shadow fused operations are effectively exact too.
type shadowQuire struct {
	acc   big.Float
	undef bool
}

var (
	_ interp.Hooks             = (*Runtime)(nil)
	_ interp.InjectionObserver = (*Runtime)(nil)
)

// ObserveInjection implements interp.InjectionObserver: a fault injector
// announces that the value delivered by the next hook event was corrupted
// from before to after. Load, Store and PostCall consume the record so
// their clean metadata stays the reference the corruption is judged
// against — the divergence is flagged — instead of being mistaken for an
// uninstrumented write and re-seeded from the corrupted value.
func (r *Runtime) ObserveInjection(id int32, op ir.Op, typ ir.Type, before, after uint64) {
	r.pendInj.valid = true
	r.pendInj.id = id
	r.pendInj.op = op
	r.pendInj.before = before
	r.pendInj.after = after
}

// injectedBefore consumes a pending injection matching this event,
// returning the pre-corruption bits metadata should be compared against.
func (r *Runtime) injectedBefore(id int32, op ir.Op, bits uint64) (uint64, bool) {
	if !r.pendInj.valid || r.pendInj.id != id || r.pendInj.op != op || r.pendInj.after != bits {
		return bits, false
	}
	r.pendInj.valid = false
	return r.pendInj.before, true
}

// Config validation bounds: precisions below the narrowest sensible
// shadow (the paper evaluates down to 128 bits; 64 is the degradation
// floor) or absurdly large ones are configuration mistakes, not
// experiments.
const (
	MinPrecision = 64
	MaxPrecision = 4096
)

// Validate rejects configurations that the runtime would previously have
// patched silently. Campaign sweeps over precision configs fail loudly on
// bad input instead of producing tables at an unintended precision.
func (c Config) Validate() error {
	kind, err := oracle.Parse(string(c.Oracle))
	if err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	// Precision governs only the bigfp oracle; fixed-precision oracles
	// ignore it, so a stale Precision in a retargeted config is not an
	// error.
	if kind == oracle.BigFP && (c.Precision < MinPrecision || c.Precision > MaxPrecision) {
		return fmt.Errorf("shadow: precision %d out of range [%d, %d]", c.Precision, MinPrecision, MaxPrecision)
	}
	if c.ErrBitsThreshold < 0 {
		return fmt.Errorf("shadow: negative ErrBitsThreshold %d", c.ErrBitsThreshold)
	}
	if c.OutputThreshold < 0 {
		return fmt.Errorf("shadow: negative OutputThreshold %d", c.OutputThreshold)
	}
	if c.PrecisionLossThreshold < 0 {
		return fmt.Errorf("shadow: negative PrecisionLossThreshold %d", c.PrecisionLossThreshold)
	}
	if c.MaxReports < 0 {
		return fmt.Errorf("shadow: negative MaxReports %d", c.MaxReports)
	}
	if c.MaxDAGDepth < 0 {
		return fmt.Errorf("shadow: negative MaxDAGDepth %d", c.MaxDAGDepth)
	}
	if c.MaxShadowBytes < 0 {
		return fmt.Errorf("shadow: negative MaxShadowBytes %d", c.MaxShadowBytes)
	}
	return nil
}

// New returns a runtime for the module, validating the configuration.
// Attach it to a machine via machine.Hooks before running an instrumented
// module.
func New(mod *ir.Module, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxDAGDepth == 0 {
		cfg.MaxDAGDepth = 16
	}
	orc, err := oracle.New(cfg.Oracle, cfg.Precision)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		mod:    mod,
		cfg:    cfg,
		orc:    orc,
		cpVals: valStore{big: orc.Kind() == oracle.BigFP},
		mem:    newShadowMem(mod.GlobalBase + mod.GlobalSize + interp.DefaultStackSize),
		quires: map[ir.Type]*shadowQuire{},
		events: cfg.Events,
		prof:   cfg.Profile,
	}
	if reg := cfg.Metrics; reg != nil {
		r.reg = reg
		r.metOps = reg.Counter("pd_shadow_ops_total")
		for k := KindCancellation; k <= KindWrongOutput; k++ {
			r.metDet[k] = reg.Counter(`pd_detections_total{kind="` + k.String() + `"}`)
		}
		r.metErrHist = reg.Histogram("pd_op_err_bits")
	}
	return r, nil
}

// SetSampling sets the sampling stride: every nth dynamic instance of each
// static compute instruction (Bin, Un, Cast, FMA and QVal) is shadowed
// and the rest are skipped, cutting shadow cost roughly by n. n ≤ 1
// shadows everything. Structural events (constants, moves, comparisons,
// memory, calls, prints, quire accumulation) always run, so metadata
// propagation and the branch-flip and output oracles stay exact.
//
// The decision is a pure function of (static id, per-id occurrence count),
// and the counts reset every run, so a sampled run shadows the same
// dynamic instances on either backend and under any worker count. The
// first instance of every static instruction is always shadowed, so every
// instruction appears in the profile; each skipped instance is counted
// through the bound collector's Skipped.
//
// A skipped instance leaves its destination's metadata stale. The next
// consumer's program-value check re-seeds it from the program bits, so
// downstream comparisons measure error accumulated since the last sampled
// point, and detections on the skipped instance itself are missed. A
// fault injected at a skipped instance stays announced until a matching
// event consumes it.
func (r *Runtime) SetSampling(n int64) { r.sample = n }

// take reports whether this dynamic instance of a compute event is
// shadowed. An unsampled run pays the one inlined comparison.
func (r *Runtime) take(id int32) bool {
	return r.sample <= 1 || r.takeSampled(id)
}

// takeSampled is take's stride > 1 path: count the occurrence, and feed
// each skipped one to the profiler.
func (r *Runtime) takeSampled(id int32) bool {
	if id < 0 {
		return true
	}
	if int(id) >= len(r.occur) {
		grown := make([]int64, int(id)+16)
		copy(grown, r.occur)
		r.occur = grown
	}
	c := r.occur[id]
	r.occur[id] = c + 1
	if c%r.sample == 0 {
		return true
	}
	if r.prof != nil {
		r.prof.Skipped(id)
	}
	return false
}

// monoBase anchors the monotonic clock behind shadow-op latency timing.
var monoBase = time.Now()

// monoNanos returns monotonic nanoseconds since a process-local base.
func monoNanos() int64 { return int64(time.Since(monoBase)) }

// startTimer reads the clock when the bound collector records latency
// (profile.Collector.Timing); an untimed run pays one inlined bool test.
func (r *Runtime) startTimer() int64 {
	if r.timing {
		return monoNanos()
	}
	return 0
}

// stopTimer feeds the latency of the compute event timed from t0 to the
// collector.
func (r *Runtime) stopTimer(id int32, t0 int64) {
	if r.timing {
		r.recordLatency(id, t0)
	}
}

func (r *Runtime) recordLatency(id int32, t0 int64) {
	r.prof.Latency(id, monoNanos()-t0)
}

// instErrCounts is one instruction's run-local pd_inst_err_bits counts and
// its registry histogram, resolved at the counts' first fold. Counts are
// created with their first observation, so the registry gains an
// instruction's histogram only once it has observed something.
type instErrCounts struct {
	obs.HistCounts
	hist *obs.Histogram
}

// observeErr records one checked op's error bits in the run-local counts.
// Per-id counts are allocated on the id's first observation and kept
// across Reset, so repeated runs on one runtime allocate nothing here.
func (r *Runtime) observeErr(id int32, bits int) {
	r.opErr.Observe(bits)
	if id < 0 {
		return
	}
	if int(id) >= len(r.instErr) {
		grown := make([]*instErrCounts, max(int(id)+1, len(r.mod.Registry)))
		copy(grown, r.instErr)
		r.instErr = grown
	}
	c := r.instErr[id]
	if c == nil {
		c = &instErrCounts{}
		r.instErr[id] = c
	}
	c.Observe(bits)
}

// foldMetrics adds the run's not yet exported shadowed ops and error-bits
// counts to the registry. Release, Summary and Reset call it, so every
// attempt's ops and observations reach the registry exactly once, whether
// the run succeeded or not.
func (r *Runtime) foldMetrics() {
	if r.reg == nil {
		return
	}
	if r.totalOps > r.flushedOps {
		r.metOps.Add(int64(r.totalOps - r.flushedOps))
		r.flushedOps = r.totalOps
	}
	r.metErrHist.Fold(&r.opErr)
	for id, c := range r.instErr {
		if c == nil {
			continue
		}
		if c.hist == nil {
			c.hist = r.reg.Histogram(`pd_inst_err_bits{inst="` + strconv.Itoa(id) + `"}`)
		}
		c.hist.Fold(&c.HistCounts)
	}
}

// Reset clears all state at the start of a run. It reuses the
// shadow-memory trie, the frame pool and the quire accumulators in place,
// so a Runtime run repeatedly on one machine reaches a steady state with
// no per-run allocation beyond the reports it emits.
func (r *Runtime) Reset() {
	r.frames = r.frames[:0]
	r.lockTop = 0
	r.nextKey = 1
	r.now = 1
	r.mem.reset()
	r.argStack = r.argStack[:0]
	r.retValid = false
	r.flipEpoch = 0
	r.pendInj.valid = false
	clear(r.occur)
	r.timing = r.prof != nil && r.prof.Timing
	for _, q := range r.quires {
		q.acc.SetInt64(0)
		q.undef = false
	}
	r.counts = [KindWrongOutput + 1]int{}
	// Summaries hand out the reports slice, so start a fresh one rather
	// than truncating the backing array a previous caller may still hold.
	r.reports = nil
	r.foldMetrics()
	r.totalOps = 0
	r.flushedOps = 0
	r.maxOpErr = 0
	r.outputMaxErr = 0
	r.branchFlips = 0
	r.uninstrWrites = 0
}

// Summary returns the aggregated detections of the last run.
func (r *Runtime) Summary() *Summary {
	r.foldMetrics()
	counts := map[Kind]int{}
	for k, v := range r.counts {
		if v != 0 {
			counts[Kind(k)] = v
		}
	}
	return &Summary{
		Counts:               counts,
		TotalOps:             r.totalOps,
		MaxOpErrBits:         r.maxOpErr,
		OutputMaxErrBits:     r.outputMaxErr,
		BranchFlips:          r.branchFlips,
		UninstrumentedWrites: r.uninstrWrites,
		Reports:              r.reports,
	}
}

// Release ends an attempt: it folds the run's op and error-bits counts into
// the registry, clears the cells the run set, and returns the runtime's shadow
// pages to a package-level free list that later runtimes take pages from
// before allocating. Call it once the run's Summary has been taken, or
// when the run failed: the runtime stays usable, but its next run starts
// with an empty trie. ShadowMemPages and ShadowMemBytes keep reporting the
// last run.
func (r *Runtime) Release() {
	r.foldMetrics()
	r.mem.release()
}

// ShadowMemPages reports allocated shadow pages (ablation instrumentation).
func (r *Runtime) ShadowMemPages() int { return r.mem.pageCount() }

// entryBytes estimates the shadow-memory cost of one MemMeta cell: the
// struct itself plus the selected oracle's real per-entry footprint —
// bigfp's mantissa words scale with Precision, dd is a fixed
// 16-byte pair, residue a single float64. The estimate only needs to be
// deterministic and monotone across degradation steps so the budget
// shrinks when a degraded retry drops precision or switches to a cheaper
// oracle.
func (r *Runtime) entryBytes() int64 { return 48 + r.orc.EntryBytes() }

// OracleKind reports the backend this runtime shadows with.
func (r *Runtime) OracleKind() oracle.Kind { return r.orc.Kind() }

// ShadowMemBytes reports the estimated shadow-memory footprint.
func (r *Runtime) ShadowMemBytes() int64 {
	return int64(r.mem.pageCount()) * pageSize * r.entryBytes()
}

// memAt returns the metadata cell for addr, enforcing the shadow-memory
// budget: exceeding it raises *interp.ResourceExhausted, which the machine
// recovers into a structured error (the trigger for precision-degraded
// retries).
func (r *Runtime) memAt(addr uint32) *MemMeta {
	mm := r.mem.get(addr)
	if r.cfg.MaxShadowBytes > 0 {
		if used := r.ShadowMemBytes(); used > r.cfg.MaxShadowBytes {
			panic(&interp.ResourceExhausted{
				Resource: interp.ResShadowMemory,
				Limit:    r.cfg.MaxShadowBytes,
				Used:     used,
			})
		}
	}
	return mm
}

func (r *Runtime) cur() *shadowFrame { return r.frames[len(r.frames)-1] }

func (r *Runtime) temp(reg int32) *TempMeta { return &r.cur().temps[reg] }

// EnterFunc pushes a shadow frame, allocates its lock-and-key, and binds
// parameter metadata from the shadow argument stack (or from the program
// values for the entry call).
func (r *Runtime) EnterFunc(fn *ir.Func, argVals []uint64) {
	// Both backends trap on call depth (interp's maxCallDepth, 1024) before
	// they call EnterFunc, so at most 1024 frames are live and lockTop
	// stays below maxLockDepth.
	r.lockTop++
	r.locks[r.lockTop] = r.nextKey
	key := r.nextKey
	r.nextKey++

	var f *shadowFrame
	if n := len(r.pool); n > 0 {
		f = r.pool[n-1]
		r.pool = r.pool[:n-1]
	} else {
		f = &shadowFrame{}
	}
	f.fn = fn
	f.lockIdx = r.lockTop
	f.reset(fn.NumRegs)
	r.frames = append(r.frames, f)

	// Lock-and-key only guards DAG pointer traversal; the no-tracing
	// configuration (Fig 8/10) skips the whole mechanism.
	if r.cfg.Tracing {
		lock := &r.locks[r.lockTop]
		for i := range f.temps {
			f.temps[i].lock = lock
			f.temps[i].key = key
		}
	}

	// Bind parameters: the caller's PreCall pushed one entry per argument.
	n := len(fn.Params)
	if len(r.argStack) >= n && n > 0 {
		base := len(r.argStack) - n
		for i := 0; i < n; i++ {
			src := &r.argStack[base+i]
			if !fn.Params[i].IsNumeric() {
				continue
			}
			dst := &f.temps[i]
			if src.written {
				r.copyMeta(dst, src)
			} else {
				r.initFromProgram(dst, fn.Params[i], argVals[i])
			}
		}
		r.argStack = r.argStack[:base]
	} else {
		// Entry call (no PreCall): seed parameters from program values.
		for i := 0; i < n && i < len(argVals); i++ {
			if fn.Params[i].IsNumeric() {
				r.initFromProgram(&f.temps[i], fn.Params[i], argVals[i])
			}
		}
	}
}

// LeaveFunc invalidates the frame's lock and recycles the frame.
func (r *Runtime) LeaveFunc() {
	f := r.cur()
	r.locks[f.lockIdx] = 0 // keys are never reused, so 0 invalidates
	r.lockTop--
	r.frames = r.frames[:len(r.frames)-1]
	r.pool = append(r.pool, f)
}

// copyMeta copies metadata content (assignment of temporaries, §3.3),
// keeping the destination's lock/key and refreshing the timestamp.
func (r *Runtime) copyMeta(dst, src *TempMeta) {
	r.orc.Copy(&dst.Real, &src.Real)
	dst.Undef = src.Undef
	dst.Prog = src.Prog
	dst.Inst = src.Inst
	dst.Err = src.Err
	if r.cfg.Tracing {
		dst.Op1 = src.Op1
		dst.Op2 = src.Op2
		dst.Time = r.tick()
	}
	dst.written = true
}

// initFromProgram seeds metadata from the program's own value — used for
// entry arguments, values written by uninstrumented code, and resync after
// branch flips.
func (r *Runtime) initFromProgram(t *TempMeta, typ ir.Type, bits uint64) {
	f := interp.ToFloat64(typ, bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		t.Undef = true
		r.orc.SetInt64(&t.Real, 0)
	} else {
		t.Undef = false
		r.orc.SetFloat64(&t.Real, f)
	}
	t.Prog = bits
	t.Inst = -1
	t.Err = 0
	if r.cfg.Tracing {
		t.Op1 = mdRef{}
		t.Op2 = mdRef{}
		t.Time = r.tick()
	}
	t.written = true
}

// ensure returns the metadata for a register, seeding it from the program
// value if the shadow has not seen it yet.
func (r *Runtime) ensure(reg int32, typ ir.Type, bits uint64) *TempMeta {
	t := r.temp(reg)
	if !t.written || t.Prog != bits {
		// Unseen, or the register was rewritten by an untracked
		// instruction: fall back to the program's value.
		r.initFromProgram(t, typ, bits)
	}
	return t
}

func (r *Runtime) tick() uint64 {
	r.now++
	return r.now
}

// Const seeds a literal's metadata with the exact source value (§3.3
// "creation of temporary constants").
func (r *Runtime) Const(id int32, typ ir.Type, dst int32, bits uint64) {
	t := r.temp(dst)
	meta := r.mod.Meta(id)
	r.orc.SetFloat64(&t.Real, meta.Const)
	t.Undef = false
	t.Prog = bits
	t.Inst = id
	t.Err = 0
	if r.cfg.Tracing {
		t.Op1 = mdRef{}
		t.Op2 = mdRef{}
		t.Time = r.tick()
	}
	t.written = true
}

// Mov copies metadata on register copies.
func (r *Runtime) Mov(id int32, typ ir.Type, dst, src int32, bits uint64) {
	s := r.ensure(src, typ, bits)
	d := r.temp(dst)
	r.copyMeta(d, s)
}

// Bin performs the shadow binary operation and runs error detection
// (§3.3 "posit binary and unary operations", §3.4).
func (r *Runtime) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	d := r.temp(dst)

	undef := ta.Undef || tb.Undef
	if !undef {
		switch kind {
		case ir.BinAdd:
			r.orc.Add(&d.Real, &ta.Real, &tb.Real)
		case ir.BinSub:
			r.orc.Sub(&d.Real, &ta.Real, &tb.Real)
		case ir.BinMul:
			r.orc.Mul(&d.Real, &ta.Real, &tb.Real)
		case ir.BinDiv:
			bad := r.orc.Div(&d.Real, &ta.Real, &tb.Real)
			undef = undef || bad
		}
	}
	if undef {
		r.orc.SetInt64(&d.Real, 0)
	}
	d.Undef = undef
	d.Prog = dstVal
	d.Inst = id
	d.written = true
	if r.cfg.Tracing {
		d.Op1 = ta.ref()
		d.Op2 = tb.ref()
		d.Time = r.tick()
	}
	r.totalOps++
	r.checkOp(id, typ, opSub(kind), d, ta, tb)
	r.stopTimer(id, t0)
}

func opSub(kind ir.BinKind) bool { return kind == ir.BinSub || kind == ir.BinAdd }

// Un performs the shadow unary operation.
func (r *Runtime) Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	ta := r.ensure(a, typ, aVal)
	d := r.temp(dst)
	undef := ta.Undef
	if !undef {
		switch kind {
		case ir.UnNeg:
			r.orc.Neg(&d.Real, &ta.Real)
		case ir.UnAbs:
			r.orc.Abs(&d.Real, &ta.Real)
		case ir.UnSqrt:
			bad := r.orc.Sqrt(&d.Real, &ta.Real)
			undef = undef || bad
		default:
			r.orc.Copy(&d.Real, &ta.Real)
		}
	}
	if undef {
		r.orc.SetInt64(&d.Real, 0)
	}
	d.Undef = undef
	d.Prog = dstVal
	d.Inst = id
	d.written = true
	if r.cfg.Tracing {
		d.Op1 = ta.ref()
		d.Op2 = mdRef{}
		d.Time = r.tick()
	}
	r.totalOps++
	r.checkOp(id, typ, false, d, ta, nil)
	r.stopTimer(id, t0)
}

// Cmp compares in the shadow execution and reports branch flips; after a
// flip the shadow follows the program's path and re-initializes metadata
// from the program's values (§3.1).
func (r *Runtime) Cmp(id int32, pred ir.CmpPred, typ ir.Type, a, b int32, aVal, bVal uint64, outcome bool) {
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	if ta.Undef || tb.Undef {
		return
	}
	c := r.orc.Cmp(&ta.Real, &tb.Real)
	var shadowOutcome bool
	switch pred {
	case ir.CmpEq:
		shadowOutcome = c == 0
	case ir.CmpNe:
		shadowOutcome = c != 0
	case ir.CmpLt:
		shadowOutcome = c < 0
	case ir.CmpLe:
		shadowOutcome = c <= 0
	case ir.CmpGt:
		shadowOutcome = c > 0
	case ir.CmpGe:
		shadowOutcome = c >= 0
	}
	if shadowOutcome == outcome {
		return
	}
	r.branchFlips++
	r.count(KindBranchFlip)
	r.emit(KindBranchFlip, id, errInfo{
		errBits: maxInt(ta.Err, tb.Err),
		typ:     typ, prog: aVal, real: &ta.Real, prog2: bVal, real2: &tb.Real,
		root: pickRoot(ta, tb),
	})
	r.resyncAfterFlip()
}

func pickRoot(ta, tb *TempMeta) *TempMeta {
	if ta.Err >= tb.Err {
		return ta
	}
	return tb
}

// resyncAfterFlip re-initializes the current frame's temporaries from the
// program's values and marks shadow memory for lazy resync, so feedback
// stays meaningful on the program's (divergent) path.
func (r *Runtime) resyncAfterFlip() {
	r.flipEpoch++
	f := r.cur()
	for i := range f.temps {
		t := &f.temps[i]
		if !t.written {
			continue
		}
		typ := r.typeOfInst(t.Inst)
		if typ == ir.Void {
			// Unknown producer: there is no type to re-decode t.Prog as,
			// so the temporary keeps its metadata. One seeded from the
			// program (Inst -1) already agrees with its bits, and ensure
			// re-seeds it if the register changes.
			continue
		}
		r.initFromProgram(t, typ, t.Prog)
	}
}

func (r *Runtime) typeOfInst(id int32) ir.Type {
	if id < 0 {
		return ir.Void
	}
	return r.mod.Meta(id).Type
}

// Cast propagates metadata through conversions and checks numeric→integer
// casts against the shadow execution (§3.4 "casts to integers").
func (r *Runtime) Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	r.castImpl(id, from, to, dst, src, dstVal, srcVal)
	r.stopTimer(id, t0)
}

func (r *Runtime) castImpl(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	switch {
	case from.IsNumeric() && to.IsNumeric():
		s := r.ensure(src, from, srcVal)
		d := r.temp(dst)
		r.copyMeta(d, s)
		d.Prog = dstVal
		d.Inst = id
		r.totalOps++
		// A NaR, NaN or Inf source is the exception counted where it arose;
		// its bits read as the destination type may look finite.
		if !s.pvalFor(from).undef() {
			r.checkOp(id, to, false, d, s, nil)
		}
	case from.IsNumeric() && to == ir.I64:
		s := r.ensure(src, from, srcVal)
		if s.Undef {
			return
		}
		shadowInt := r.orc.Int64(&s.Real)
		if shadowInt != int64(dstVal) {
			r.count(KindWrongCast)
			r.emit(KindWrongCast, id, errInfo{
				errBits: int(s.Err),
				typ:     ir.I64, prog: dstVal, shadowInt: shadowInt,
				root: s,
			})
		}
	case from == ir.I64 && to.IsNumeric():
		d := r.temp(dst)
		r.orc.SetInt64(&d.Real, int64(srcVal))
		d.Undef = false
		d.Prog = dstVal
		d.Inst = id
		d.Err = 0
		if r.cfg.Tracing {
			d.Op1 = mdRef{}
			d.Op2 = mdRef{}
			d.Time = r.tick()
		}
		d.written = true
		r.totalOps++
		r.checkOp(id, to, false, d, nil, nil)
	}
}

// Load propagates metadata from shadow memory to a temporary (§3.3
// "memory loads"), detecting uninstrumented writes (§4.1) and applying
// lazy post-flip resynchronization. A posit loaded from a cell with a
// matching memoized decode inherits it, and a miss decodes into both the
// temporary and the cell, so later loads of the address decode nothing.
func (r *Runtime) Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {
	// An injected fault corrupts the loaded register, not memory: match the
	// memory metadata against the clean pre-corruption bits so the fault is
	// flagged below instead of resynced away as an uninstrumented write.
	clean, injected := r.injectedBefore(id, ir.OpShadowLoad, bits)
	mm := r.memAt(addr)
	d := r.temp(dst)
	switch {
	case !mm.set:
		r.initFromProgram(d, typ, clean)
		d.Inst = id
	case mm.Prog != clean:
		// Some untracked write changed program memory: trust the program.
		r.uninstrWrites++
		r.initFromProgram(d, typ, clean)
		d.Inst = id
		// Refresh the stale memory metadata too.
		r.seedMemFromProgram(mm, typ, clean)
	case mm.epoch < r.flipEpoch:
		// Post-branch-flip lazy resync.
		r.initFromProgram(d, typ, clean)
		d.Inst = id
		r.seedMemFromProgram(mm, typ, clean)
	default:
		r.orc.Copy(&d.Real, &mm.Real)
		d.Undef = mm.Undef
		d.Prog = clean
		d.Inst = mm.Inst
		d.Err = mm.Err
		if r.cfg.Tracing {
			// If the last writer's frame is still live, inherit its operand
			// pointers so the DAG can cross the store/load (Figure 4).
			if mm.Writer.valid() {
				d.Op1 = mm.Writer.md.Op1
				d.Op2 = mm.Writer.md.Op2
			} else {
				d.Op1 = mdRef{}
				d.Op2 = mdRef{}
			}
			d.Time = r.tick()
		}
		d.written = true
	}
	if injected {
		// The register the program computes with holds the corrupted bits;
		// the shadow just installed stays clean. Record and judge the
		// divergence exactly like an arithmetic result.
		d.Prog = bits
		r.checkOp(id, typ, false, d, nil, nil)
	}
	if !typ.IsPosit() {
		return
	}
	if mm.pv.is(mm.pvBits, typ, d.Prog) {
		d.pv, d.pvBits = mm.pv, mm.pvBits
		return
	}
	mm.pv, mm.pvBits = *d.pvalFor(typ), d.Prog
}

// seedMemFromProgram re-seeds the set cell mm from the program's bits.
func (r *Runtime) seedMemFromProgram(mm *MemMeta, typ ir.Type, bits uint64) {
	f := interp.ToFloat64(typ, bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		mm.Undef = true
		r.orc.SetInt64(&mm.Real, 0)
	} else {
		mm.Undef = false
		r.orc.SetFloat64(&mm.Real, f)
	}
	mm.Prog = bits
	mm.Inst = -1
	mm.Err = 0
	mm.Writer = mdRef{}
	mm.epoch = r.flipEpoch
}

// Store propagates metadata from a temporary to shadow memory (§3.3
// "memory stores"). The source temporary's memoized decode, if it matches
// the stored bits, moves into the cell, priming it for later loads.
func (r *Runtime) Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {
	// An injected fault corrupts the stored memory cell, not the source
	// register: bind the register metadata by its clean value, then record
	// the corrupted bits as the cell's program value so every later load
	// observes the divergence against the clean shadow.
	clean, injected := r.injectedBefore(id, ir.OpShadowStore, bits)
	s := r.ensure(src, typ, clean)
	mm := r.memAt(addr)
	r.orc.Copy(&mm.Real, &s.Real)
	mm.Undef = s.Undef
	mm.Prog = bits
	mm.Inst = s.Inst
	mm.Err = s.Err
	if r.cfg.Tracing {
		mm.Writer = s.ref()
	} else {
		mm.Writer = mdRef{}
	}
	mm.epoch = r.flipEpoch
	r.mem.markSet(addr)
	if injected {
		var tmp TempMeta
		r.copyMeta(&tmp, s)
		tmp.Prog = bits
		r.checkOp(id, typ, false, &tmp, nil, nil)
		mm.Err = tmp.Err
	}
	if typ.IsPosit() && s.pv.is(s.pvBits, typ, mm.Prog) {
		mm.pv, mm.pvBits = s.pv, s.pvBits
	}
}

// PreCall pushes argument metadata onto the shadow argument stack (§3.2
// "shadow stack to store metadata for arguments and return values").
// Entries are written into the stack slots in place so the slots' lazily
// grown mantissas are reused call after call instead of reallocated.
func (r *Runtime) PreCall(callee *ir.Func, args []int32, argVals []uint64) {
	for i, reg := range args {
		n := len(r.argStack)
		if n < cap(r.argStack) {
			r.argStack = r.argStack[:n+1]
		} else {
			r.argStack = append(r.argStack, TempMeta{})
		}
		entry := &r.argStack[n]
		entry.written = false
		entry.Undef = false
		entry.Op1 = mdRef{}
		entry.Op2 = mdRef{}
		if callee.Params[i].IsNumeric() {
			src := r.ensure(reg, callee.Params[i], argVals[i])
			r.orc.Copy(&entry.Real, &src.Real)
			entry.Undef = src.Undef
			entry.Prog = src.Prog
			entry.Inst = src.Inst
			entry.Err = src.Err
			if r.cfg.Tracing {
				entry.Op1 = src.Op1
				entry.Op2 = src.Op2
			}
			entry.written = true
		}
	}
}

// Ret records the return value's metadata before the frame dies.
func (r *Runtime) Ret(typ ir.Type, src int32, bits uint64) {
	r.retValid = false
	if src < 0 || !typ.IsNumeric() {
		return
	}
	s := r.ensure(src, typ, bits)
	r.orc.Copy(&r.retMeta.Real, &s.Real)
	r.retMeta.Undef = s.Undef
	r.retMeta.Prog = s.Prog
	r.retMeta.Inst = s.Inst
	r.retMeta.Err = s.Err
	if r.cfg.Tracing {
		r.retMeta.Op1 = s.Op1
		r.retMeta.Op2 = s.Op2
	}
	r.retMeta.written = true
	r.retValid = true
	if len(r.frames) == 1 {
		// The entry function's return is a program output.
		r.checkOutputAt(s.Inst, typ, s)
	}
}

// PostCall binds the returned metadata into the caller's destination.
func (r *Runtime) PostCall(id int32, typ ir.Type, dst int32, bits uint64) {
	if dst < 0 || !typ.IsNumeric() {
		return
	}
	// An injected fault corrupts the register the return value landed in,
	// after the callee's Ret recorded clean metadata: match on the clean
	// bits and flag the divergence instead of treating the callee as
	// untracked and re-seeding from the corruption.
	clean, injected := r.injectedBefore(id, ir.OpShadowPostCall, bits)
	d := r.temp(dst)
	if r.retValid && r.retMeta.Prog == clean {
		r.copyMeta(d, &r.retMeta)
		d.Inst = r.retMeta.Inst
	} else {
		// Callee was untracked (or returned through an untracked path).
		r.initFromProgram(d, typ, clean)
		d.Inst = id
	}
	r.retValid = false
	if injected {
		d.Prog = bits
		r.checkOp(id, typ, false, d, nil, nil)
	}
}

// Print checks program outputs against the shadow execution (§2.2 "wrong
// outputs").
func (r *Runtime) Print(id int32, typ ir.Type, src int32, bits uint64) {
	if !typ.IsNumeric() {
		return
	}
	s := r.ensure(src, typ, bits)
	r.checkOutputAt(id, typ, s)
}

// FMA performs the fused multiply-add in the shadow execution: at the
// shadow precision the product+add rounds once, matching the program's
// single-rounding semantics.
func (r *Runtime) FMA(id int32, typ ir.Type, dst, a, b, c int32, dstVal, aVal, bVal, cVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	tc := r.ensure(c, typ, cVal)
	d := r.temp(dst)
	undef := ta.Undef || tb.Undef || tc.Undef
	if !undef {
		r.orc.FMA(&d.Real, &ta.Real, &tb.Real, &tc.Real)
	} else {
		r.orc.SetInt64(&d.Real, 0)
	}
	d.Undef = undef
	d.Prog = dstVal
	d.Inst = id
	d.written = true
	if r.cfg.Tracing {
		// Two operand slots: point at the product inputs; the addend is
		// typically the accumulator this value overwrites next.
		d.Op1 = ta.ref()
		d.Op2 = tc.ref()
		d.Time = r.tick()
	}
	r.totalOps++
	r.checkOp(id, typ, true, d, ta, tc)
	r.stopTimer(id, t0)
}

// QClear resets all shadow quires.
func (r *Runtime) QClear(typ ir.Type) {
	for _, q := range r.quires {
		q.acc.SetPrec(768).SetInt64(0)
		q.undef = false
	}
}

func (r *Runtime) squire(typ ir.Type) *shadowQuire {
	q, ok := r.quires[typ]
	if !ok {
		q = &shadowQuire{}
		q.acc.SetPrec(768).SetMode(big.ToNearestEven)
		r.quires[typ] = q
	}
	return q
}

// QAdd mirrors quire accumulation with shadow operand values.
func (r *Runtime) QAdd(typ ir.Type, a int32, aVal uint64, negate bool) {
	q := r.squire(typ)
	ta := r.ensure(a, typ, aVal)
	if ta.Undef {
		q.undef = true
		return
	}
	r.orc.Big(&r.qsA, &ta.Real)
	if negate {
		q.acc.Sub(&q.acc, &r.qsA)
	} else {
		q.acc.Add(&q.acc, &r.qsA)
	}
}

// QMAdd mirrors fused multiply-accumulate with shadow operand values.
func (r *Runtime) QMAdd(typ ir.Type, a, b int32, aVal, bVal uint64, negate bool) {
	q := r.squire(typ)
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	if ta.Undef || tb.Undef {
		q.undef = true
		return
	}
	r.orc.Big(&r.qsA, &ta.Real)
	r.orc.Big(&r.qsB, &tb.Real)
	r.qProd.SetPrec(768).Mul(&r.qsA, &r.qsB)
	if negate {
		q.acc.Sub(&q.acc, &r.qProd)
	} else {
		q.acc.Add(&q.acc, &r.qProd)
	}
}

// QVal seeds the rounded quire value's metadata and checks its error.
func (r *Runtime) QVal(id int32, typ ir.Type, dst int32, bits uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	q := r.squire(typ)
	d := r.temp(dst)
	if q.undef {
		d.Undef = true
		r.orc.SetInt64(&d.Real, 0)
	} else {
		d.Undef = false
		r.orc.SetBig(&d.Real, &q.acc)
	}
	d.Prog = bits
	d.Inst = id
	if r.cfg.Tracing {
		d.Op1 = mdRef{}
		d.Op2 = mdRef{}
		d.Time = r.tick()
	}
	d.written = true
	r.totalOps++
	r.checkOp(id, typ, false, d, nil, nil)
	r.stopTimer(id, t0)
}

func maxInt(a, b int32) int {
	if a > b {
		return int(a)
	}
	return int(b)
}
