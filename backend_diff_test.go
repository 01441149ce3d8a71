package positdebug_test

// The two-backend differential suite: every workload, the detection
// programs, fault campaigns, and profiling sweeps must produce
// byte-identical artifacts whether they run on the tree-walk interpreter
// or the bytecode VM. The tree-walker is the semantic oracle; any
// divergence here is a VM bug by definition. `make vm-smoke` runs this
// file under -race -cpu=1,4 so the identity also holds across worker
// counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

// execOutcome is everything observable from one Exec, canonicalized for
// byte comparison across backends.
type execOutcome struct {
	Value      uint64
	Output     string
	Steps      int64
	TraceNodes int
	Summary    json.RawMessage
	Trace      json.RawMessage
	Err        string
}

func runOnBackend(t *testing.T, prog *positdebug.Program, k backend.Kind, extra ...positdebug.Option) execOutcome {
	t.Helper()
	log := &obs.Log{}
	opts := append([]positdebug.Option{
		positdebug.WithBackend(k),
		positdebug.WithTrace(log),
	}, extra...)
	res, err := prog.Exec("main", opts...)
	oc := execOutcome{Trace: mustJSON(t, log.Events())}
	if err != nil {
		oc.Err = err.Error()
		return oc
	}
	oc.Value = res.Value
	oc.Output = res.Output
	oc.Steps = res.Steps
	oc.TraceNodes = res.TraceNodes
	if res.Summary != nil {
		oc.Summary = mustJSON(t, res.Summary)
	}
	return oc
}

// promText renders reg as a Prometheus text dump.
func promText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func diffOutcomes(t *testing.T, name string, tw, vm execOutcome) {
	t.Helper()
	if tw.Err != vm.Err {
		t.Errorf("%s: error diverged\n  treewalk: %q\n  vm:       %q", name, tw.Err, vm.Err)
		return
	}
	if tw.Value != vm.Value {
		t.Errorf("%s: value diverged: treewalk %#x, vm %#x", name, tw.Value, vm.Value)
	}
	if tw.Output != vm.Output {
		t.Errorf("%s: output diverged\n  treewalk: %q\n  vm:       %q", name, tw.Output, vm.Output)
	}
	if tw.Steps != vm.Steps {
		t.Errorf("%s: steps diverged: treewalk %d, vm %d", name, tw.Steps, vm.Steps)
	}
	if tw.TraceNodes != vm.TraceNodes {
		t.Errorf("%s: Herbgrind trace nodes diverged: treewalk %d, vm %d", name, tw.TraceNodes, vm.TraceNodes)
	}
	if !bytes.Equal(tw.Summary, vm.Summary) {
		t.Errorf("%s: shadow summary diverged\n  treewalk: %s\n  vm:       %s", name, tw.Summary, vm.Summary)
	}
	if !bytes.Equal(tw.Trace, vm.Trace) {
		t.Errorf("%s: trace stream diverged\n  treewalk: %s\n  vm:       %s", name, tw.Trace, vm.Trace)
	}
}

// diffServedAndHerbgrind diffs two more kinds of run across backends.
// First it runs prog the way pdserve serves a shadow request — bigfp-256,
// no DAG tracing, one report, a metrics registry attached — then a
// metered baseline run into the same registry; the results and the
// Prometheus dump must match byte-for-byte across backends. Then the
// Herbgrind-style runtime must see the same op stream on both: same value,
// steps and trace-node count.
func diffServedAndHerbgrind(t *testing.T, name string, prog *positdebug.Program) {
	t.Helper()
	served := func(k backend.Kind) (shadowed, base execOutcome, dump string) {
		reg := obs.NewRegistry()
		cfg := shadow.ConfigFor(oracle.BigFP, 256)
		cfg.Tracing = false
		cfg.MaxReports = 1
		cfg.Metrics = reg
		shadowed = runOnBackend(t, prog, k, positdebug.WithShadow(cfg))
		base = runOnBackend(t, prog, k, positdebug.WithBaseline(), positdebug.WithMetrics(reg))
		return shadowed, base, promText(t, reg)
	}
	twShadow, twBase, twDump := served(backend.Treewalk)
	vmShadow, vmBase, vmDump := served(backend.VM)
	diffOutcomes(t, name+"/served", twShadow, vmShadow)
	diffOutcomes(t, name+"/metered-baseline", twBase, vmBase)
	if twDump != vmDump {
		t.Errorf("%s: metrics dump diverged\n  treewalk:\n%s\n  vm:\n%s", name, twDump, vmDump)
	}

	tw := runOnBackend(t, prog, backend.Treewalk, positdebug.WithHerbgrind(256))
	vm := runOnBackend(t, prog, backend.VM, positdebug.WithHerbgrind(256))
	diffOutcomes(t, name+"/herbgrind", tw, vm)
}

// TestBackendDiffDetectionSuite runs all 32 detection-suite programs with
// the §5.1 thresholds on both backends and requires identical results,
// summaries, and event streams, then diffs the served, metered and
// Herbgrind runs of each (diffServedAndHerbgrind).
func TestBackendDiffDetectionSuite(t *testing.T) {
	for _, p := range workloads.Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			src := p.Source
			if p.FromFP {
				var err error
				src, err = positdebug.RefactorToPosit(src)
				if err != nil {
					t.Fatalf("refactor: %v", err)
				}
			}
			prog, err := positdebug.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := shadow.DefaultConfig()
			cfg.ErrBitsThreshold = 35
			cfg.OutputThreshold = 35
			cfg.PrecisionLossThreshold = 8
			tw := runOnBackend(t, prog, backend.Treewalk, positdebug.WithShadow(cfg))
			vm := runOnBackend(t, prog, backend.VM, positdebug.WithShadow(cfg))
			diffOutcomes(t, p.Name, tw, vm)
			diffServedAndHerbgrind(t, p.Name, prog)
		})
	}
}

// TestBackendDiffKernels runs a spread of PolyBench/SPEC-like kernels —
// FP original and posit refactor, baseline, shadowed, served, metered and
// Herbgrind — on both backends.
func TestBackendDiffKernels(t *testing.T) {
	kernels := []string{"gemm", "atax", "durbin", "cholesky", "spec_equake"}
	for _, name := range kernels {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, ok := workloads.KernelByName(name)
			if !ok {
				t.Fatalf("unknown kernel %q", name)
			}
			fpSrc := k.Source(8)
			posSrc, err := positdebug.RefactorToPosit(fpSrc)
			if err != nil {
				t.Fatalf("refactor: %v", err)
			}
			for _, v := range []struct {
				arch string
				src  string
			}{{"f64", fpSrc}, {"posit32", posSrc}} {
				prog, err := positdebug.Compile(v.src)
				if err != nil {
					t.Fatalf("compile %s: %v", v.arch, err)
				}
				tw := runOnBackend(t, prog, backend.Treewalk, positdebug.WithBaseline())
				vm := runOnBackend(t, prog, backend.VM, positdebug.WithBaseline())
				diffOutcomes(t, name+"/"+v.arch+"/baseline", tw, vm)

				tw = runOnBackend(t, prog, backend.Treewalk, positdebug.WithShadow(shadow.DefaultConfig()))
				vm = runOnBackend(t, prog, backend.VM, positdebug.WithShadow(shadow.DefaultConfig()))
				diffOutcomes(t, name+"/"+v.arch+"/shadow", tw, vm)

				diffServedAndHerbgrind(t, name+"/"+v.arch, prog)
			}
		})
	}
}

// TestBackendDiffStepLimits sweeps the step budget across a contiguous
// window so limits trip at every offset relative to the VM's fused
// superinstruction boundaries, and requires the structured
// ResourceExhausted errors to match field-for-field. This pins the
// fused-pair step-accounting split (first half at s+1, second at s+2),
// for shadow pairs and base pairs alike.
func TestBackendDiffStepLimits(t *testing.T) {
	k, _ := workloads.KernelByName("gemm")
	src, err := positdebug.RefactorToPosit(k.Source(4))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := positdebug.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	exhausted := func(k backend.Kind, maxSteps int64) (interp.ResourceExhausted, string) {
		_, err := prog.Exec("main",
			positdebug.WithBackend(k),
			positdebug.WithShadow(shadow.DefaultConfig()),
			positdebug.WithLimits(interp.Limits{MaxSteps: maxSteps}))
		var re *interp.ResourceExhausted
		if !errors.As(err, &re) {
			t.Fatalf("backend %v limit %d: want ResourceExhausted, got %v", k, maxSteps, err)
		}
		return *re, err.Error()
	}
	for maxSteps := int64(40); maxSteps < 104; maxSteps++ {
		tw, twMsg := exhausted(backend.Treewalk, maxSteps)
		vm, vmMsg := exhausted(backend.VM, maxSteps)
		if tw != vm || twMsg != vmMsg {
			t.Fatalf("limit %d: treewalk %+v (%s), vm %+v (%s)", maxSteps, tw, twMsg, vm, vmMsg)
		}
	}
}

// loadTrapSrc dirties shadow memory, then loads past the end of memory
// inside a fused load.
const loadTrapSrc = `
var g: [64]p32;

func main(): p32 {
	for (var i: i64 = 0; i < 64; i += 1) {
		g[i] = p32(i) * 0.5;
	}
	return g[7] + g[268435456];
}
`

// callDepthTrapSrc recurses without bound on shadowed values, so the
// call-depth limit trips.
const callDepthTrapSrc = `
func down(x: f64): f64 {
	return down(x * 0.5 + 1.0) - x;
}

func main(): f64 {
	return down(3.0);
}
`

// stackTrapSrc recurses with an 8000-byte local array, so the stack runs
// out long before the call-depth limit.
const stackTrapSrc = `
func deep(n: i64): f64 {
	var buf: [1000]f64;
	buf[n % 1000] = f64(n) * 1.5;
	return deep(n + 1) + buf[0];
}

func main(): f64 {
	return deep(0);
}
`

// TestBackendDiffTraps runs programs that trap part-way, shadowed the way
// pdserve serves them and as a baseline, on both backends, and requires
// the same error text, event stream and Prometheus dump (diffTrap).
// trapSrc and loadTrapSrc trap in the base half of a fused store and
// load, divTrapSrc on an unshadowed integer division, callDepthTrapSrc
// and stackTrapSrc on a call. A third shadowed run gets a step budget
// that ends on the trapping instruction, so the VM replays a fused pair's
// base half alone and must trap at the same count.
func TestBackendDiffTraps(t *testing.T) {
	for _, p := range []struct{ name, src, want string }{
		{"store", trapSrc, "out of bounds"},
		{"load", loadTrapSrc, "out of bounds"},
		{"div", divTrapSrc, "division by zero"},
		{"call-depth", callDepthTrapSrc, "call depth exceeded"},
		{"stack", stackTrapSrc, "stack overflow"},
	} {
		prog, err := positdebug.Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		served := positdebug.WithShadow(servedShadowConfig())
		steps := diffTrap(t, p.name+"/shadow", p.want, prog, served)
		diffTrap(t, p.name+"/baseline", p.want, prog, positdebug.WithBaseline())
		diffTrap(t, p.name+"/split", p.want, prog, served, positdebug.WithLimits(interp.Limits{MaxSteps: steps}))
	}
}

// diffTrap runs prog on both backends, each into its own metrics
// registry, requires a trap whose text contains want, with the same error
// text, event stream and metrics dump on both, and returns the
// tree-walker's step count. A trap carries no step count, so
// pd_steps_total and the run-end event are where a miscounted trap shows.
func diffTrap(t *testing.T, name, want string, prog *positdebug.Program, opts ...positdebug.Option) int64 {
	t.Helper()
	run := func(k backend.Kind) (execOutcome, string, int64) {
		reg := obs.NewRegistry()
		oc := runOnBackend(t, prog, k, append(opts, positdebug.WithMetrics(reg))...)
		return oc, promText(t, reg), reg.Counter("pd_steps_total").Value()
	}
	tw, twDump, steps := run(backend.Treewalk)
	vm, vmDump, _ := run(backend.VM)
	if !strings.Contains(tw.Err, "trap") || !strings.Contains(tw.Err, want) {
		t.Errorf("%s: want a trap containing %q, got %q", name, want, tw.Err)
	}
	diffOutcomes(t, name, tw, vm)
	if twDump != vmDump {
		t.Errorf("%s: metrics dump diverged\n  treewalk:\n%s\n  vm:\n%s", name, twDump, vmDump)
	}
	return steps
}

// cancelInjector cancels its run's context at the at-th injectable event
// and corrupts nothing, so the run stops at the next context poll.
type cancelInjector struct {
	at, n  int
	cancel context.CancelFunc
}

func (c *cancelInjector) Reset()      { c.n = 0 }
func (c *cancelInjector) Spent() bool { return false }

func (c *cancelInjector) Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (uint64, bool) {
	if c.n++; c.n == c.at {
		c.cancel()
	}
	return bits, false
}

// TestBackendDiffCancellation cancels shadowed kernel runs from inside,
// at a fixed event, so both backends notice at the same context poll.
// Polls fall every 8192 steps, on either step of a fused pair as often as
// on a plain op. Each run repeats under a step budget ending on the first
// poll, where the poll must still win. The error text (which carries the
// step count), the event stream and the metrics dump must match.
func TestBackendDiffCancellation(t *testing.T) {
	cancelled := 0
	for _, name := range []string{"gemm", "bicg", "atax", "mvt", "gesummv", "syrk", "trmm", "doitgen", "lu", "trisolv"} {
		k, ok := workloads.KernelByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		fpSrc := k.Source(8)
		posSrc, err := positdebug.RefactorToPosit(fpSrc)
		if err != nil {
			t.Fatalf("refactor %s: %v", name, err)
		}
		for _, v := range []struct{ arch, src string }{{"f64", fpSrc}, {"posit32", posSrc}} {
			prog, err := positdebug.Compile(v.src)
			if err != nil {
				t.Fatalf("compile %s/%s: %v", name, v.arch, err)
			}
			for _, maxSteps := range []int64{0, 8192} {
				for _, at := range []int{1, 3000, 6000, 9000, 12000} {
					run := func(bk backend.Kind) (execOutcome, string) {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						reg := obs.NewRegistry()
						oc := runOnBackend(t, prog, bk, positdebug.WithShadow(shadow.DefaultConfig()),
							positdebug.WithMetrics(reg), positdebug.WithContext(ctx),
							positdebug.WithLimits(interp.Limits{MaxSteps: maxSteps}),
							positdebug.WithInjector(&cancelInjector{at: at, cancel: cancel}))
						return oc, promText(t, reg)
					}
					label := fmt.Sprintf("%s/%s/cancel@%d/budget%d", name, v.arch, at, maxSteps)
					tw, twDump := run(backend.Treewalk)
					vm, vmDump := run(backend.VM)
					diffOutcomes(t, label, tw, vm)
					if twDump != vmDump {
						t.Errorf("%s: metrics dump diverged\n  treewalk:\n%s\n  vm:\n%s", label, twDump, vmDump)
					}
					if strings.Contains(tw.Err, "run cancelled") {
						cancelled++
					}
				}
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("no run was cancelled")
	}
}

// TestBackendDiffCampaign runs the same small fault campaign on both
// backends — posit and float arches, traced — and requires byte-identical
// report JSON and event streams. The Backend field is excluded from the
// report and journal fingerprint precisely because of this identity.
func TestBackendDiffCampaign(t *testing.T) {
	run := func(k backend.Kind) (string, string) {
		var trace bytes.Buffer
		sink := obs.NewJSONLines(&trace)
		rep, err := faultinject.RunCampaign(faultinject.CampaignConfig{
			Workload: "polybench/gemm",
			N:        6,
			Arch:     "both",
			Runs:     12,
			Seed:     42,
			Trace:    sink,
			Backend:  k,
		})
		if err != nil {
			t.Fatalf("campaign on %v: %v", k, err)
		}
		if sink.Err() != nil {
			t.Fatalf("sink on %v: %v", k, sink.Err())
		}
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b), trace.String()
	}
	twRep, twTrace := run(backend.Treewalk)
	vmRep, vmTrace := run(backend.VM)
	if twRep != vmRep {
		t.Errorf("campaign report diverged\n  treewalk: %s\n  vm:       %s", twRep, vmRep)
	}
	if twTrace != vmTrace {
		t.Errorf("campaign trace diverged\n  treewalk: %s\n  vm:       %s", twTrace, vmTrace)
	}
}

// TestBackendDiffProfile records the same multi-run, multi-worker error
// profile on both backends; the canonical profile JSON (file:line:col
// attribution included, fed by the VM's source-position table) and the
// traced event stream must match byte-for-byte.
func TestBackendDiffProfile(t *testing.T) {
	run := func(k backend.Kind) (string, string) {
		var trace bytes.Buffer
		sink := obs.NewJSONLines(&trace)
		p, err := harness.RecordProfile(harness.ProfileOptions{
			Kernel:  "gemm",
			N:       6,
			Posit:   true,
			Runs:    4,
			Workers: 2,
			Trace:   sink,
			Backend: k,
		})
		if err != nil {
			t.Fatalf("profile on %v: %v", k, err)
		}
		var out bytes.Buffer
		if err := p.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String(), trace.String()
	}
	twProf, twTrace := run(backend.Treewalk)
	vmProf, vmTrace := run(backend.VM)
	if twProf != vmProf {
		t.Errorf("merged profile diverged\n  treewalk: %s\n  vm:       %s", twProf, vmProf)
	}
	if twTrace != vmTrace {
		t.Errorf("profile trace diverged\n  treewalk: %s\n  vm:       %s", twTrace, vmTrace)
	}
}

// TestBackendDiffSampledInjection exercises the two seams the VM must keep
// working: the shadow runtime's sampling gate and the machine's fault
// injector (which must see identical dynamic instruction streams to
// corrupt identically), alone and combined.
func TestBackendDiffSampledInjection(t *testing.T) {
	k, _ := workloads.KernelByName("gemm")
	src, err := positdebug.RefactorToPosit(k.Source(6))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := positdebug.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	model := faultinject.Model{Kind: faultinject.BitFlip, BitPos: -1, Rate: 0.01, MaxInjections: 4}
	for _, stride := range []int{1, 3, 7} {
		tw := runOnBackend(t, prog, backend.Treewalk,
			positdebug.WithShadow(shadow.DefaultConfig()), positdebug.WithSampling(stride))
		vm := runOnBackend(t, prog, backend.VM,
			positdebug.WithShadow(shadow.DefaultConfig()), positdebug.WithSampling(stride))
		diffOutcomes(t, "sampled", tw, vm)

		injected := func(k backend.Kind) execOutcome {
			return runOnBackend(t, prog, k,
				positdebug.WithShadow(shadow.DefaultConfig()), positdebug.WithSampling(stride),
				positdebug.WithInjector(faultinject.NewInjector(model, int64(stride))))
		}
		diffOutcomes(t, "sampled+injected", injected(backend.Treewalk), injected(backend.VM))
	}
}

// injectionP16 is a ⟨16,1⟩ program with every injectable op class:
// fused P16 add/sub/mul, constants, casts, loads, stores, a call return,
// negation, division and sqrt. No kernel is written in ⟨16,1⟩, so it is
// the only input on which the fused P16 superinstructions meet an
// injector.
const injectionP16 = `
var v: [8]p16;
var w: [8]p16;

func dot(n: i64): p16 {
	var s: p16 = 0.0;
	for (var i: i64 = 0; i < n; i += 1) {
		s = s + v[i] * w[i];
	}
	return s;
}

func main(): p16 {
	for (var i: i64 = 0; i < 8; i += 1) {
		v[i] = p16(i) * 0.375 - 1.0;
		w[i] = -(p16(8 - i) / 3.0);
	}
	var d: p16 = dot(8);
	var e: p16 = d - dot(4);
	return sqrt(e * e) + p16(f64(d) * 0.5);
}
`

// TestBackendDiffInjectionMatrix crosses every fault kind with each
// injectable op class alone, in occurrence mode (the first and the middle
// eligible event) and in rate mode capped at three faults, on a ⟨32,2⟩
// kernel, an f64 kernel and a ⟨16,1⟩ program. Both backends deliver every
// event through its Hooks method whether the injector is live or spent,
// so value, summary and reports, trace events, candidate count and fault
// schedule must all match the tree-walker's.
func TestBackendDiffInjectionMatrix(t *testing.T) {
	gemm, _ := workloads.KernelByName("gemm")
	p32, err := positdebug.RefactorToPosit(gemm.Source(6))
	if err != nil {
		t.Fatal(err)
	}
	// The injector sees a cast's source type, and the kernels cast only
	// from i64, so only the ⟨16,1⟩ program has cast faults to inject.
	programs := []struct {
		name, src string
		casts     bool
	}{
		{"gemm-p32", p32, false},
		{"gemm-f64", gemm.Source(6), false},
		{"p16", injectionP16, true},
	}
	kinds := []faultinject.Kind{faultinject.BitFlip, faultinject.MultiBitFlip, faultinject.StuckNaR, faultinject.Saturate}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			prog, err := positdebug.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}
			multi := false
			for _, class := range []string{"arith", "const", "cast", "load", "store", "call"} {
				ops, err := faultinject.ClassByName(class)
				if err != nil {
					t.Fatal(err)
				}
				counter := faultinject.NewInjector(faultinject.Model{Ops: ops}, 0)
				counter.CountOnly = true
				if _, err := prog.Exec("main", positdebug.WithInjector(counter)); err != nil {
					t.Fatal(err)
				}
				c := counter.Candidates()
				if (c == 0) == (class != "cast" || p.casts) {
					t.Fatalf("%d %s events to inject into", c, class)
				}
				if c == 0 {
					continue
				}
				for ki, kind := range kinds {
					models := []faultinject.Model{
						{Kind: kind, BitPos: -1, Ops: ops, Occurrence: 1},
						{Kind: kind, BitPos: -1, Ops: ops, Occurrence: c/2 + 1},
						{Kind: kind, BitPos: -1, Ops: ops, Rate: min(1, 4/float64(c)), MaxInjections: 3},
					}
					for mi, model := range models {
						name := fmt.Sprintf("%s/%s/%v/%d", p.name, class, kind, mi)
						run := func(k backend.Kind) (execOutcome, *faultinject.Injector) {
							inj := faultinject.NewInjector(model, int64(ki*len(models)+mi))
							return runOnBackend(t, prog, k, positdebug.WithInjector(inj)), inj
						}
						tw, twInj := run(backend.Treewalk)
						vm, vmInj := run(backend.VM)
						diffOutcomes(t, name, tw, vm)
						if twInj.Candidates() != vmInj.Candidates() {
							t.Errorf("%s: candidates diverged: treewalk %d, vm %d", name, twInj.Candidates(), vmInj.Candidates())
						}
						if tws, vms := mustJSON(t, twInj.Schedule()), mustJSON(t, vmInj.Schedule()); !bytes.Equal(tws, vms) {
							t.Errorf("%s: schedule diverged\n  treewalk: %s\n  vm:       %s", name, tws, vms)
						}
						if model.Occurrence > 0 && len(vmInj.Schedule()) != 1 {
							t.Errorf("%s: %d faults in occurrence mode", name, len(vmInj.Schedule()))
						}
						multi = multi || len(vmInj.Schedule()) > 1
					}
				}
			}
			if !multi {
				t.Error("no rate-mode run injected more than one fault")
			}
		})
	}
}

// TestBackendDiffSampledSuite runs every detection-suite program sampled at
// several strides on both backends. The shadow runtime gates each Hooks
// compute method, and the VM runs sampled ops through the fused
// superinstructions; this test pins that the runtime's take() decisions
// and skip semantics (stale metadata, program result still computed) are
// byte-identical to the tree-walker's, detection verdicts included.
func TestBackendDiffSampledSuite(t *testing.T) {
	for _, p := range workloads.Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			src := p.Source
			if p.FromFP {
				var err error
				src, err = positdebug.RefactorToPosit(src)
				if err != nil {
					t.Fatalf("refactor: %v", err)
				}
			}
			prog, err := positdebug.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := shadow.DefaultConfig()
			cfg.ErrBitsThreshold = 35
			cfg.OutputThreshold = 35
			cfg.PrecisionLossThreshold = 8
			for _, stride := range []int{2, 5} {
				tw := runOnBackend(t, prog, backend.Treewalk,
					positdebug.WithShadow(cfg), positdebug.WithSampling(stride))
				vm := runOnBackend(t, prog, backend.VM,
					positdebug.WithShadow(cfg), positdebug.WithSampling(stride))
				diffOutcomes(t, p.Name, tw, vm)
			}
		})
	}
}
