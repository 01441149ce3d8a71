package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/parallel"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/ulp"
	"positdebug/internal/workloads"
)

// Outcome classifies one fault-injected run against the golden run, using
// the shadow oracle for detection (the related work's resilience taxonomy:
// masked / SDC / detected / crashed / hung).
type Outcome string

// Outcomes.
const (
	// OutcomeMasked: the final value stayed within the masked threshold of
	// the golden value and the oracle raised nothing new.
	OutcomeMasked Outcome = "masked"
	// OutcomeSDC: the final value is wrong and no detector fired — silent
	// data corruption, the dangerous bucket.
	OutcomeSDC Outcome = "sdc"
	// OutcomeDetected: PositDebug's shadow oracle flagged the run
	// (cancellation, precision loss, NaR, branch flip, wrong output, …)
	// beyond the golden run's baseline detections.
	OutcomeDetected Outcome = "detected"
	// OutcomeCrashed: the run died with a trap or internal fault.
	OutcomeCrashed Outcome = "crashed"
	// OutcomeHung: the run exceeded its wall-clock or step budget.
	OutcomeHung Outcome = "hung"
)

// CampaignConfig describes one resilience campaign.
type CampaignConfig struct {
	// Workload names the program: "polybench/<kernel>", "spec/<kernel>",
	// "suite/<program>", or a bare kernel name.
	Workload string
	// N overrides the kernel problem size (0 = a campaign-friendly size,
	// half the harness default).
	N int
	// Arch selects "posit", "float", or "both".
	Arch string
	// Runs is the number of fault-injected runs per architecture.
	Runs int
	// Seed drives every random choice; the whole campaign is a pure
	// function of it.
	Seed int64
	// Model is the fault model. With neither Occurrence nor Rate set, the
	// campaign injects exactly one fault per run at a uniformly drawn
	// dynamic site — the classic single-event-upset sweep.
	Model Model
	// Timeout bounds each run's wall clock (default 10s).
	Timeout time.Duration
	// MaxSteps bounds each run's instruction count (default 200M).
	MaxSteps int64
	// Precision is the bigfp shadow precision (default 256).
	Precision uint
	// Oracle selects the shadow-arithmetic backend (empty = bigfp, the
	// historical behavior; see internal/shadow/oracle). Campaigns run on a
	// cheap oracle classify against the same detection machinery at lower
	// shadow cost.
	Oracle oracle.Kind
	// MaxShadowBytes is the shadow-memory budget per run (0 = unlimited);
	// over-budget bigfp runs degrade 256→128→64 and are flagged degraded
	// (fixed-precision oracles surface the budget error instead).
	MaxShadowBytes int64
	// MaskedBits is the output-deviation threshold (in double-ULP error
	// bits vs the golden value) below which a run counts as masked.
	// 0 means the default of 10; −1 requires an exact output match.
	MaskedBits int
	// KeepSchedules embeds each run's fault schedule in the report.
	KeepSchedules bool
	// Trace, when set, receives the campaign's structured event stream:
	// campaign/arch framing, then per run its run-start, inject and
	// detection events (buffered per run and merged in run-index order) and
	// a closing run-outcome. The stream is byte-identical between
	// sequential and parallel executions of the same campaign.
	Trace obs.Sink
	// TraceWorkers additionally emits worker-start/worker-stop lifecycle
	// events. These depend on GOMAXPROCS and arrive in scheduling order, so
	// they are opt-in and excluded from the determinism guarantee.
	TraceWorkers bool
	// Metrics, when set, aggregates counters across all runs: shadow-oracle
	// detections by kind, shadowed ops, steps, and campaign outcomes
	// (pd_campaign_outcomes_total{outcome=...}).
	Metrics *obs.Registry
	// Journal, when set, write-ahead-logs every completed run (fsync'd per
	// record) and replays runs already journaled by a previous — possibly
	// killed — invocation of the same campaign, so the final report is
	// byte-identical to an uninterrupted run. Open one with OpenJournal;
	// its header pins the campaign parameters, so a journal from different
	// flags is rejected rather than silently mixed in. Trace events are not
	// journaled: resumed runs contribute no per-run events to Trace.
	Journal *Journal
	// Backend selects the execution engine (tree-walk interpreter or
	// bytecode VM) for the golden pass and every fault-injected run. The
	// two backends produce byte-identical campaign artifacts, so Backend is
	// deliberately excluded from the report JSON, the journal fingerprint,
	// and the fabric wire format: a journal or shard computed under one
	// backend composes cleanly with runs from the other.
	Backend backend.Kind `json:"-"`
}

// oracleLabel renders a non-default oracle kind for reports and journal
// records; bigfp (including the empty zero value) renders as "" so every
// pre-oracle artifact — JSON reports, journals, shard payloads — stays
// byte-identical.
func oracleLabel(k oracle.Kind) string {
	if k == "" || k == oracle.BigFP {
		return ""
	}
	return string(k)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Arch == "" {
		c.Arch = "posit"
	}
	if c.Runs == 0 {
		c.Runs = 100
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
	if c.Precision == 0 {
		c.Precision = 256
	}
	if c.MaskedBits == 0 {
		c.MaskedBits = 10
	} else if c.MaskedBits < 0 {
		c.MaskedBits = 0 // −1 sentinel: exact match required
	}
	if c.Model.BitPos == 0 {
		// Zero-value models draw the bit per injection; pinning bit 0
		// requires driving the Injector directly.
		c.Model.BitPos = -1
	}
	return c
}

// RunResult is one fault-injected run's record.
type RunResult struct {
	Run       int      `json:"run"`
	Seed      int64    `json:"seed"`
	Outcome   Outcome  `json:"outcome"`
	ErrBits   int      `json:"err_bits"`
	Detected  []string `json:"detected,omitempty"` // new detection kinds vs golden
	Degraded  bool     `json:"degraded"`
	Precision uint     `json:"precision"`
	Oracle    string   `json:"oracle,omitempty"` // non-bigfp shadow backend, if any
	Injected  int      `json:"injected"`         // faults actually injected
	Schedule  []Record `json:"schedule,omitempty"`
	Error     string   `json:"error,omitempty"`

	// events is the run's buffered event stream (run-start, inject,
	// detection, run-end), merged into CampaignConfig.Trace in run-index
	// order by the campaign.
	events []obs.Event
}

// Totals aggregates one architecture's outcomes.
type Totals struct {
	Runs          int     `json:"runs"`
	Masked        int     `json:"masked"`
	SDC           int     `json:"sdc"`
	Detected      int     `json:"detected"`
	Crashed       int     `json:"crashed"`
	Hung          int     `json:"hung"`
	Degraded      int     `json:"degraded"`
	InjectedRuns  int     `json:"injected_runs"`
	DetectionRate float64 `json:"detection_rate"` // detected / (detected + sdc)
}

// ArchReport is one architecture's half of the campaign.
type ArchReport struct {
	Arch        string      `json:"arch"` // "posit" or "float"
	GoldenValue float64     `json:"golden_value"`
	GoldenKinds []string    `json:"golden_kinds,omitempty"` // baseline oracle detections
	Candidates  int64       `json:"candidates"`             // eligible injection events per run
	Results     []RunResult `json:"results"`
	Totals      Totals      `json:"totals"`
}

// Report is the aggregate posit-vs-float resilience report.
type Report struct {
	Workload  string       `json:"workload"`
	N         int          `json:"n"`
	Runs      int          `json:"runs"`
	Seed      int64        `json:"seed"`
	Model     string       `json:"model"`
	Precision uint         `json:"precision"`
	Oracle    string       `json:"oracle,omitempty"` // non-bigfp shadow backend, if any
	Arches    []ArchReport `json:"arches"`
}

// detectable are the oracle kinds compared against the golden baseline, in
// a fixed order for deterministic reports.
var detectable = []shadow.Kind{
	shadow.KindCancellation, shadow.KindPrecisionLoss, shadow.KindSaturation,
	shadow.KindNaR, shadow.KindBranchFlip, shadow.KindWrongCast,
	shadow.KindHighError, shadow.KindWrongOutput,
}

// ResolveWorkload returns the FP PCL source of a workload spec and the
// problem size used.
func ResolveWorkload(spec string, n int) (src string, size int, err error) {
	name := spec
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		group := spec[:i]
		name = spec[i+1:]
		if group == "suite" {
			for _, p := range workloads.Suite() {
				if p.Name == name {
					return p.Source, 0, nil
				}
			}
			return "", 0, fmt.Errorf("faultinject: no suite program %q", name)
		}
		if group != "polybench" && group != "spec" {
			return "", 0, fmt.Errorf("faultinject: unknown workload group %q", group)
		}
	}
	k, ok := workloads.KernelByName(name)
	if !ok {
		return "", 0, fmt.Errorf("faultinject: unknown workload %q", spec)
	}
	if n <= 0 {
		// Campaign-friendly size: thousands of runs, not one figure.
		n = k.DefaultN / 2
		if n < 8 {
			n = 8
		}
	}
	return k.Source(n), n, nil
}

// RunCampaign executes the sweep: golden + calibration pass per
// architecture, then cfg.Runs fault-injected runs, each classified with
// the shadow oracle. Every run is bounded by the configured limits and
// recovers panics, so one poisoned run never kills the sweep.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext is RunCampaign governed by a context — the
// whole-campaign deadline and Ctrl-C path. Cancellation stops the sweep
// cooperatively: workers stop claiming new runs, the run in flight stops
// within one interpreter poll interval, and the campaign returns a
// *interp.Cancelled error (never a partial report). With a Journal
// attached, runs completed before the cancellation are already on disk and
// a later invocation resumes past them.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	src, n, err := ResolveWorkload(cfg.Workload, cfg.N)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Workload: cfg.Workload, N: n, Runs: cfg.Runs, Seed: cfg.Seed,
		Model: cfg.Model.Kind.String(), Precision: cfg.Precision,
		Oracle: oracleLabel(cfg.Oracle),
	}

	arches, err := cfg.EffectiveArches()
	if err != nil {
		return nil, err
	}

	if cfg.Trace != nil {
		e := obs.NewEvent(obs.EvCampaignStart)
		e.Name = cfg.Workload
		e.Seed = cfg.Seed
		cfg.Trace.Emit(e)
	}
	for _, arch := range arches {
		ar, err := runArch(ctx, cfg, arch, src)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: %w", arch, asCancelled(ctx, err))
		}
		rep.Arches = append(rep.Arches, *ar)
	}
	if cfg.Trace != nil {
		e := obs.NewEvent(obs.EvCampaignEnd)
		e.Name = cfg.Workload
		e.Seed = cfg.Seed
		cfg.Trace.Emit(e)
	}
	return rep, nil
}

// asCancelled normalizes a cancellation observed between runs (a bare
// context error from the worker pool) into the same structured
// *interp.Cancelled an interrupted hot loop produces, so callers switch on
// one type.
func asCancelled(ctx context.Context, err error) error {
	var c *interp.Cancelled
	if errors.As(err, &c) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &interp.Cancelled{Cause: context.Cause(ctx)}
	}
	return err
}

// archPrep is the output of the golden + calibration pass: everything the
// per-run loop needs, shared between the local campaign path (runArch) and
// the distributed shard path (RunShard) so both classify runs identically.
type archPrep struct {
	prog         *positdebug.Program
	scfg         shadow.Config
	lim          interp.Limits
	retType      ir.Type
	goldenF      float64
	goldenCounts map[shadow.Kind]int
	info         ArchInfo
	// checkpoints are the golden run's, in step order; runs only read
	// them, concurrently.
	checkpoints []savedCheckpoint
}

// maxCheckpoints bounds the checkpoints a golden run keeps (K, per
// architecture and shard). Between K/2 and K of them survive the run,
// evenly spaced, so a run resumes on average within 1/K of the golden run
// before its site.
const maxCheckpoints = 16

// savedCheckpoint is one golden-run checkpoint and the number of eligible
// events before it.
type savedCheckpoint struct {
	count int64
	cp    *interp.Checkpoint
}

// recorder is the golden run's counting injector when later runs may
// resume: the VM records a checkpoint at every stride-th poll step, and
// once maxCheckpoints are kept it drops every other one and records half
// as often.
type recorder struct {
	*Injector
	polls, stride int64
	cps           []savedCheckpoint
}

// Reset implements interp.Injector: a degraded retry of the golden run
// records afresh.
func (r *recorder) Reset() {
	r.Injector.Reset()
	r.polls, r.stride = 0, 1
	clear(r.cps)
	r.cps = r.cps[:0]
}

// WantCheckpoint implements interp.CheckpointRecorder.
func (r *recorder) WantCheckpoint(int64) bool {
	r.polls++
	return r.polls%r.stride == 0
}

// RecordCheckpoint implements interp.CheckpointRecorder.
func (r *recorder) RecordCheckpoint(cp *interp.Checkpoint) {
	r.cps = append(r.cps, savedCheckpoint{count: r.candidates, cp: cp})
	if len(r.cps) < maxCheckpoints {
		return
	}
	k := 0
	for i := 1; i < len(r.cps); i += 2 {
		r.cps[k] = r.cps[i]
		k++
	}
	clear(r.cps[k:])
	r.cps = r.cps[:k]
	r.stride *= 2
}

// resumer is a single-site run's injector when a golden checkpoint lies
// before its site: the run's first attempt starts from that checkpoint; a
// degraded retry starts from step 0.
type resumer struct {
	*Injector
	from *interp.Checkpoint
}

// ResumeFrom implements interp.Resumer.
func (r *resumer) ResumeFrom() *interp.Checkpoint {
	cp := r.from
	r.from = nil
	return cp
}

// resumeFrom returns the last golden checkpoint before a single-site
// run's site (its 1-based occurrence), or nil when the run must start
// from step 0: a rate-mode run (occurrence 0), a site at or before the
// first checkpoint, or a campaign whose golden recorded none.
func (p *archPrep) resumeFrom(occurrence int64) *interp.Checkpoint {
	i := sort.Search(len(p.checkpoints), func(i int) bool { return p.checkpoints[i].count >= occurrence })
	if i == 0 {
		return nil
	}
	return p.checkpoints[i-1].cp
}

// prepArch compiles the workload for one architecture and executes the
// golden + calibration pass: the counting injector observes the eligible
// event stream without corrupting anything. With record set, a VM golden
// run of a single-site campaign also records the checkpoints its runs
// resume from; runs of a traced campaign, which would miss the prefix's
// events, start from step 0 and need none.
func prepArch(ctx context.Context, cfg CampaignConfig, arch, fpSrc string, record bool) (*archPrep, error) {
	src := fpSrc
	if arch == "posit" && !strings.Contains(fpSrc, ": p32") {
		var err error
		src, err = positdebug.RefactorToPosit(fpSrc)
		if err != nil {
			return nil, err
		}
	}
	prog, err := positdebug.Compile(src)
	if err != nil {
		return nil, err
	}
	retType := ir.F64
	if fn := prog.Module.FuncByName("main"); fn != nil {
		retType = fn.Ret
	}

	scfg := shadow.DefaultConfig()
	scfg.Oracle = cfg.Oracle
	scfg.Precision = cfg.Precision
	scfg.MaxShadowBytes = cfg.MaxShadowBytes
	// Classification only reads Summary.Counts; keep a single report per
	// run so large sweeps don't accumulate them (0 would mean unlimited).
	scfg.MaxReports = 1
	scfg.Tracing = false
	scfg.Metrics = cfg.Metrics
	lim := interp.Limits{Timeout: cfg.Timeout, MaxSteps: cfg.MaxSteps}

	counter := NewInjector(cfg.Model, 0)
	counter.CountOnly = true
	var seam interp.Injector = counter
	var rec *recorder
	if record && cfg.Backend == backend.VM && cfg.Trace == nil && (cfg.Model.Occurrence > 0 || cfg.Model.Rate == 0) {
		rec = &recorder{Injector: counter}
		seam = rec
	}
	golden, err := prog.Exec("main",
		positdebug.WithContext(ctx), positdebug.WithBackend(cfg.Backend),
		positdebug.WithShadow(scfg), positdebug.WithLimits(lim),
		positdebug.WithInjector(seam))
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	goldenF := decode(retType, golden.Value)
	goldenCounts := golden.Summary.Counts
	p := &archPrep{
		prog: prog, scfg: scfg, lim: lim, retType: retType,
		goldenF: goldenF, goldenCounts: goldenCounts,
		info: ArchInfo{
			GoldenValue: goldenF,
			GoldenKinds: kindNamesOf(goldenCounts, nil),
			Candidates:  counter.Candidates(),
		},
	}
	if p.info.Candidates == 0 {
		return nil, fmt.Errorf("workload has no injectable events")
	}
	if rec != nil && !golden.Degraded {
		// A degraded golden run's checkpoints hold a lower-precision
		// shadow than any run's first attempt.
		p.checkpoints = rec.cps
	}
	return p, nil
}

// assembleArch turns one architecture's golden info plus its run results
// (in run-index order) into the final ArchReport. Both the local campaign
// and the distributed fabric merge go through this one function, which is
// what makes a report assembled from remote shards byte-identical to a
// sequential single-process run.
func assembleArch(cfg CampaignConfig, arch string, info ArchInfo, results []RunResult) *ArchReport {
	ar := &ArchReport{
		Arch:        arch,
		GoldenValue: info.GoldenValue,
		GoldenKinds: info.GoldenKinds,
		Candidates:  info.Candidates,
	}
	for _, rr := range results {
		rr.events = nil
		if !cfg.KeepSchedules {
			rr.Schedule = nil
		}
		ar.Results = append(ar.Results, rr)
		tallyOutcome(&ar.Totals, rr)
	}
	finishTotals(&ar.Totals)
	return ar
}

func runArch(ctx context.Context, cfg CampaignConfig, arch, fpSrc string) (*ArchReport, error) {
	p, err := prepArch(ctx, cfg, arch, fpSrc, true)
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		e := obs.NewEvent(obs.EvArchStart)
		e.Arch = arch
		e.Program = fmt.Sprintf("%g", p.goldenF)
		cfg.Trace.Emit(e)
	}

	// Worker lifecycle events bracket the runs, one per pool worker: the
	// one part of the stream that is GOMAXPROCS-dependent, which is why it
	// is opt-in (see CampaignConfig.TraceWorkers).
	workerEvents := func(kind string) {
		if !cfg.TraceWorkers || cfg.Trace == nil {
			return
		}
		for w := 0; w < parallel.Workers(cfg.Runs); w++ {
			e := obs.NewEvent(kind)
			e.Worker = w
			e.Arch = arch
			cfg.Trace.Emit(e)
		}
	}
	workerEvents(obs.EvWorkerStart)

	// Fault-injected runs are pure functions of (cfg, run) — each run's
	// randomness comes from Mix(cfg.Seed, run), not from shared stream
	// state — so they shard freely across workers. Results are merged by
	// run index, making the report byte-identical to a sequential sweep.
	// When tracing, each run fills its own obs.Log, drained below in
	// run-index order — that is what keeps the event stream byte-identical
	// too. The golden run above already populated the program's caches, so
	// every run after it is read-only on the Program.
	results, err := parallel.MapCtx(ctx, cfg.Runs, func(run int) (RunResult, error) {
		if cfg.Journal != nil {
			if rr, ok := cfg.Journal.lookup(arch, run); ok {
				return rr, nil
			}
		}
		rr, err := oneRun(ctx, cfg, p, run)
		if err != nil {
			return rr, err
		}
		if cfg.Journal != nil {
			if jerr := cfg.Journal.record(arch, rr); jerr != nil {
				return rr, fmt.Errorf("journal: %w", jerr)
			}
		}
		return rr, nil
	})
	if err != nil {
		return nil, err
	}
	workerEvents(obs.EvWorkerStop) // all workers have quiesced once MapCtx returns
	for _, rr := range results {
		if cfg.Trace != nil {
			for _, e := range rr.events {
				e.Run = rr.Run
				cfg.Trace.Emit(e)
			}
			e := obs.NewEvent(obs.EvRunOutcome)
			e.Run = rr.Run
			e.Outcome = string(rr.Outcome)
			e.ErrBits = rr.ErrBits
			e.Seed = rr.Seed
			cfg.Trace.Emit(e)
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Counter(`pd_campaign_outcomes_total{outcome="` + string(rr.Outcome) + `"}`).Inc()
		}
	}
	return assembleArch(cfg, arch, p.info, results), nil
}

// oneRun executes and classifies a single fault-injected run. Panics from
// anywhere in the stack are recovered into a crashed outcome — the
// campaign-level belt to the machine's braces. A context cancellation is
// the one failure that is NOT classified: it is an external abort, so it
// propagates as the error and the campaign stops instead of recording a
// bogus outcome.
func oneRun(ctx context.Context, cfg CampaignConfig, p *archPrep, run int) (rr RunResult, abort error) {
	runSeed := Mix(cfg.Seed, run)
	rr = RunResult{Run: run, Seed: runSeed, Precision: p.scfg.Precision, Oracle: oracleLabel(p.scfg.OracleKind())}
	defer func() {
		if r := recover(); r != nil {
			rr.Outcome = OutcomeCrashed
			rr.Error = fmt.Sprintf("panic: %v", r)
		}
	}()

	model := cfg.Model
	if model.Occurrence == 0 && model.Rate == 0 {
		// Single-event-upset mode: one fault at a uniformly drawn site.
		rng := splitmix64{state: uint64(runSeed)}
		model.Occurrence = 1 + int64(rng.next()%uint64(p.info.Candidates))
		model.MaxInjections = 1
	}
	inj := NewInjector(model, runSeed)
	var seam interp.Injector = inj
	if cp := p.resumeFrom(model.Occurrence); cp != nil {
		seam = &resumer{Injector: inj, from: cp}
	}

	opts := []positdebug.Option{
		positdebug.WithContext(ctx),
		positdebug.WithShadow(p.scfg),
		positdebug.WithBackend(cfg.Backend),
		positdebug.WithLimits(p.lim),
		positdebug.WithInjector(seam),
	}
	var log *obs.Log
	if cfg.Trace != nil {
		// Stage this run's events in a private log; the campaign merges
		// logs in run-index order, stamping the run index.
		log = &obs.Log{}
		inj.Events = log
		opts = append(opts, positdebug.WithTrace(log))
	}
	res, err := p.prog.Exec("main", opts...)
	if log != nil {
		rr.events = log.Events()
	}
	rr.Injected = len(inj.Schedule())
	rr.Schedule = append([]Record(nil), inj.Schedule()...)
	if err != nil {
		var c *interp.Cancelled
		if errors.As(err, &c) {
			return rr, err
		}
		var re *interp.ResourceExhausted
		if asResource(err, &re) && (re.Resource == interp.ResSteps || re.Resource == interp.ResWallClock) {
			rr.Outcome = OutcomeHung
		} else {
			rr.Outcome = OutcomeCrashed
		}
		rr.Error = err.Error()
		return rr, nil
	}

	rr.Degraded = res.Degraded
	rr.Precision = res.ShadowPrecision
	rr.Oracle = oracleLabel(res.ShadowOracle)
	rr.Detected = kindNamesOf(res.Summary.Counts, p.goldenCounts)
	rr.ErrBits = deviationBits(p.retType, p.goldenF, decode(p.retType, res.Value))

	switch {
	case len(rr.Detected) > 0:
		rr.Outcome = OutcomeDetected
	case rr.ErrBits > cfg.MaskedBits:
		rr.Outcome = OutcomeSDC
	default:
		rr.Outcome = OutcomeMasked
	}
	return rr, nil
}

func asResource(err error, re **interp.ResourceExhausted) bool {
	for err != nil {
		if r, ok := err.(*interp.ResourceExhausted); ok {
			*re = r
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// kindNamesOf lists the kinds whose counts exceed the baseline, in a fixed
// order.
func kindNamesOf(counts, baseline map[shadow.Kind]int) []string {
	var out []string
	for _, k := range detectable {
		if counts[k] > baseline[k] {
			out = append(out, k.String())
		}
	}
	return out
}

// decode interprets a result bit pattern as a float64 for comparison;
// integers and booleans pass through exactly.
func decode(t ir.Type, bits uint64) float64 {
	switch t {
	case ir.I64:
		return float64(int64(bits))
	case ir.Bool:
		return float64(bits & 1)
	default:
		return interp.ToFloat64(t, bits)
	}
}

// deviationBits measures how wrong the faulty final value is, in error
// bits (log2 of the double-ULP distance), with NaN/Inf divergence maxed.
func deviationBits(t ir.Type, golden, faulty float64) int {
	if golden == faulty {
		return 0
	}
	gBad := math.IsNaN(golden) || math.IsInf(golden, 0)
	fBad := math.IsNaN(faulty) || math.IsInf(faulty, 0)
	if gBad || fBad {
		// Non-finite values only count as matching when they are the same
		// exception: both NaN, or infinities of the same sign. golden=+Inf
		// vs faulty=−Inf is maximally wrong, not masked.
		bothNaN := math.IsNaN(golden) && math.IsNaN(faulty)
		sameInf := (math.IsInf(golden, 1) && math.IsInf(faulty, 1)) ||
			(math.IsInf(golden, -1) && math.IsInf(faulty, -1))
		if bothNaN || sameInf {
			return 0
		}
		return 64
	}
	if t == ir.I64 || t == ir.Bool {
		return 64 // integer results must match exactly
	}
	return ulp.Bits(ulp.Distance(golden, faulty))
}

func tallyOutcome(t *Totals, rr RunResult) {
	t.Runs++
	if rr.Injected > 0 {
		t.InjectedRuns++
	}
	if rr.Degraded {
		t.Degraded++
	}
	switch rr.Outcome {
	case OutcomeMasked:
		t.Masked++
	case OutcomeSDC:
		t.SDC++
	case OutcomeDetected:
		t.Detected++
	case OutcomeCrashed:
		t.Crashed++
	case OutcomeHung:
		t.Hung++
	}
}

func finishTotals(t *Totals) {
	if t.Detected+t.SDC > 0 {
		t.DetectionRate = float64(t.Detected) / float64(t.Detected+t.SDC)
	}
}

// String renders the report as an aligned text table, posit vs float.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault-injection campaign: %s (n=%d), model=%s, %d runs/arch, seed=%d, precision=%d\n",
		r.Workload, r.N, r.Model, r.Runs, r.Seed, r.Precision)
	if r.Oracle != "" {
		fmt.Fprintf(&sb, "shadow oracle: %s\n", r.Oracle)
	}
	fmt.Fprintf(&sb, "%-8s%10s%10s%10s%10s%10s%10s%12s\n",
		"arch", "masked", "sdc", "detected", "crashed", "hung", "degraded", "det.rate")
	for _, a := range r.Arches {
		t := a.Totals
		fmt.Fprintf(&sb, "%-8s%10d%10d%10d%10d%10d%10d%11.1f%%\n",
			a.Arch, t.Masked, t.SDC, t.Detected, t.Crashed, t.Hung, t.Degraded, 100*t.DetectionRate)
	}
	for _, a := range r.Arches {
		if len(a.GoldenKinds) > 0 {
			fmt.Fprintf(&sb, "note: %s golden run already reports %s (new detections are counted on top)\n",
				a.Arch, strings.Join(a.GoldenKinds, ", "))
		}
	}
	return sb.String()
}

// SortedOutcomes lists outcomes with nonzero counts, for compact logs.
func (t Totals) SortedOutcomes() []string {
	m := map[string]int{
		string(OutcomeMasked): t.Masked, string(OutcomeSDC): t.SDC,
		string(OutcomeDetected): t.Detected, string(OutcomeCrashed): t.Crashed,
		string(OutcomeHung): t.Hung,
	}
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v > 0 {
			keys = append(keys, fmt.Sprintf("%s:%d", k, v))
		}
	}
	sort.Strings(keys)
	return keys
}
