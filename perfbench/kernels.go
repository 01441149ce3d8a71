package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	pd "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/lang"
	"positdebug/internal/shadow"
)

// kernelPasses is the least number of timed passes a kernels run makes.
const kernelPasses = 3

// kernelTail is the percentile reported as cpu_tail_ms on kernels: the
// least number of passes, of 38 programs each, puts ten samples beyond it.
const kernelTail = 90

// reference is a program's expected answer.
type reference struct {
	value       uint64
	baseSteps   int64
	shadowSteps int64
	counts      map[shadow.Kind]int
}

// referenceRun computes a program's expected answer without the code path
// under test: it lowers the source stage by stage and runs it on the
// tree-walking reference interpreter, uninstrumented and then instrumented
// under a shadow runtime with cfg.
func referenceRun(src string, cfg shadow.Config) (reference, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return reference{}, err
	}
	chk, err := lang.Check(ast)
	if err != nil {
		return reference{}, err
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		return reference{}, err
	}
	bm := interp.New(mod)
	bm.Backend = backend.Treewalk
	v, err := bm.Run("main")
	if err != nil {
		return reference{}, err
	}
	inst := instrument.Instrument(mod, instrument.Options{})
	rt, err := shadow.New(inst, cfg)
	if err != nil {
		return reference{}, err
	}
	sm := interp.New(inst)
	sm.Backend = backend.Treewalk
	sm.Hooks = rt
	sv, err := sm.Run("main")
	if err != nil {
		return reference{}, err
	}
	if sv != v {
		return reference{}, fmt.Errorf("reference shadow value %#x differs from baseline %#x", sv, v)
	}
	return reference{value: v, baseSteps: bm.Steps(), shadowSteps: sm.Steps(), counts: rt.Summary().Counts}, nil
}

// kernelObs is one program through the evaluation loop, with the CPU time
// of each call on the loop's thread, and of the whole program on every
// thread but the calibrator's.
type kernelObs struct {
	prog                        int
	compileMS, baseMS, shadowMS float64
	processMS                   float64
	compileErr                  error
	base, shadow                *pd.Result
	baseErr, shadowErr          error
}

// kernelsPass runs the paper's evaluation loop once over progs: Compile,
// then Exec(WithBaseline()), then Exec() with default options. Each
// program starts from a collected heap, as it would in a process of its
// own, so its cost does not depend on which programs ran before it. The
// caller locks its goroutine to its thread, so the thread's CPU clock
// times each call.
func kernelsPass(progs []program, tr *tracer, cal *calibrator) []kernelObs {
	out := make([]kernelObs, 0, len(progs))
	for i, p := range progs {
		o := kernelObs{prog: i}
		runtime.GC()
		c0, k0 := workCPU(), cal.spent()
		root := tr.start("kernels.program", 0)
		sp := tr.start("positdebug.Compile", root.id())
		t0 := threadCPU()
		prog, err := pd.Compile(p.Src)
		t1 := threadCPU()
		o.compileMS = ms(t1 - t0)
		sp.end()
		o.compileErr = err
		if err == nil {
			sp = tr.start("positdebug.Exec/baseline", root.id())
			t0 = threadCPU()
			o.base, o.baseErr = prog.Exec("main", pd.WithBaseline())
			t1 = threadCPU()
			o.baseMS = ms(t1 - t0)
			sp.end()
			sp = tr.start("positdebug.Exec", root.id())
			t0 = threadCPU()
			o.shadow, o.shadowErr = prog.Exec("main")
			t1 = threadCPU()
			o.shadowMS = ms(t1 - t0)
			sp.end()
		}
		root.end()
		o.processMS = ms(workCPU() - c0 - (cal.spent() - k0))
		out = append(out, o)
	}
	return out
}

// checkKernels counts each Compile and Exec call and fails those that
// erred or disagree with the reference: baseline and shadow result bits
// must match each other and the reference, and steps and detection counts
// must match the reference exactly.
func checkKernels(t *tally, progs []program, obs []kernelObs, refs []reference) {
	for _, o := range obs {
		name := progs[o.prog].Name
		if o.compileErr != nil {
			t.add(fmt.Errorf("%s: compile: %v", name, o.compileErr))
			continue
		}
		t.add(nil)
		ref := refs[o.prog]
		switch {
		case o.baseErr != nil:
			t.add(fmt.Errorf("%s: baseline: %v", name, o.baseErr))
		case o.base.Value != ref.value || o.base.Steps != ref.baseSteps:
			t.add(fmt.Errorf("%s: baseline %#x in %d steps, want %#x in %d", name, o.base.Value, o.base.Steps, ref.value, ref.baseSteps))
		default:
			t.add(nil)
		}
		switch {
		case o.shadowErr != nil:
			t.add(fmt.Errorf("%s: shadow: %v", name, o.shadowErr))
		case o.baseErr == nil && o.shadow.Value != o.base.Value:
			t.add(fmt.Errorf("%s: shadow result %#x differs from baseline %#x", name, o.shadow.Value, o.base.Value))
		case o.shadow.Value != ref.value || o.shadow.Steps != ref.shadowSteps:
			t.add(fmt.Errorf("%s: shadow %#x in %d steps, want %#x in %d", name, o.shadow.Value, o.shadow.Steps, ref.value, ref.shadowSteps))
		case !maps.Equal(o.shadow.Summary.Counts, ref.counts):
			t.add(fmt.Errorf("%s: verdicts %v, want %v", name, o.shadow.Summary.Counts, ref.counts))
		default:
			t.add(nil)
		}
	}
}

func setupKernels(seed int64) ([]program, error) {
	var progs []program
	for _, k := range drawKernels(seed) {
		p, err := kernelProgram(k)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func runKernels(rc runConfig) (*measurement, error) {
	// The paper's evaluation loop is sequential. One P keeps the
	// collector's idle mark workers from charging a spare core to the run,
	// and the locked thread's CPU clock times each call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	progs, setupS, err := timeSetup(func() ([]program, error) { return setupKernels(rc.seed) }, func([]program) {})
	if err != nil {
		return nil, err
	}
	cal := startCalibrator()
	defer cal.close()
	// Expected answers come first, so the timed passes can be checked as
	// they finish and their results dropped: results kept across passes
	// would grow the live heap, and with it the collector's share of every
	// later pass.
	refs := make([]reference, len(progs))
	for i, p := range progs {
		if refs[i], err = referenceRun(p.Src, shadow.DefaultConfig()); err != nil {
			return nil, fmt.Errorf("reference %s: %w", p.Name, err)
		}
	}
	m := &measurement{tally: &tally{}, metrics: map[string]metric{}}
	var costMS, baseMS []float64
	// segment runs whole passes and returns each pass's rate: programs
	// through the loop per scaled second of the process's CPU time, not
	// counting the collections between programs.
	segment := func(d time.Duration, tr *tracer, minPasses int, heap *heapSampler) []float64 {
		var rates []float64
		passLoop(d, func(passes int) bool { return passes >= minPasses }, func(int) error {
			obs := kernelsPass(progs, tr, cal)
			f := cal.lap()
			heap.lap()
			var cpuMS float64
			for _, o := range obs {
				cpuMS += o.processMS
			}
			rates = append(rates, float64(len(progs))/(cpuMS/1000*f))
			for _, o := range obs {
				costMS = append(costMS, (o.compileMS+o.baseMS+o.shadowMS)*f)
				baseMS = append(baseMS, o.baseMS*f)
			}
			checkKernels(m.tally, progs, obs, refs)
			return nil
		})
		return rates
	}

	if !rc.trace {
		// One untimed pass warms the allocator, the heap and every cache.
		checkKernels(m.tally, progs, kernelsPass(progs, nil, cal), refs)
		cal.lap()
		heap := startHeapSampler()
		rates := segment(rc.seconds, nil, kernelPasses, heap)
		peak := heap.medianMB()
		tail, _ := percentile(costMS, kernelTail)
		m.metrics[mSetup] = metric{setupS, "s"}
		m.metrics[mThroughput] = metric{median(rates), "1/s"}
		m.metrics[mP50] = metric{median(costMS), "ms"}
		m.metrics[mTail] = metric{tail, "ms"}
		m.metrics[mPeakHeap] = metric{peak, "MB"}
		m.notes = append(m.notes, fmt.Sprintf("kernels: %d programs x %d passes; median baseline Exec %.3f ms; p%d over %d samples",
			len(progs), len(rates), median(baseMS), kernelTail, len(costMS)))
	} else {
		half := rc.seconds / 2
		untraced := segment(half, nil, 1, nil)
		m.tracer = newTracer()
		traced := segment(half, m.tracer, 1, nil)
		ccfg := drawCampaigns(rc.seed)[0]
		if err := probeLayers(progs[:probePrograms], ccfg, m.metrics); err != nil {
			return nil, err
		}
		if err := probeFabric(ccfg, m.metrics); err != nil {
			return nil, err
		}
		m.metrics["trace.overhead_pct"] = metric{100 * (median(untraced)/median(traced) - 1), "pct"}
		m.metrics["error_rate"] = m.tally.errorRate()
	}
	return m, nil
}
