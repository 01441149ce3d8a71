package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/obs"
	"positdebug/internal/parallel"
	"positdebug/internal/posit"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

// Fig7 measures PositDebug's slowdown over the uninstrumented software-
// posit baseline at 512/256/128 bits of shadow precision, across PolyBench
// and the SPEC-like kernels (paper Figure 7).
func Fig7(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 7: PositDebug slowdown vs SoftPosit baseline (×)",
		Columns: []string{"PD-512", "PD-256", "PD-128"},
	}
	return t, overheadSweep(opts, t, compiled.positProg, precisionConfigs())
}

// Fig8 measures PositDebug at 256 bits with and without tracing metadata
// (paper Figure 8).
func Fig8(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 8: PositDebug-256 with vs without tracing (×)",
		Columns: []string{"tracing", "no-tracing"},
	}
	return t, overheadSweep(opts, t, compiled.positProg, tracingConfigs())
}

// Fig9 measures FPSanitizer's slowdown over the uninstrumented FP baseline
// at 512/256/128 bits (paper Figure 9).
func Fig9(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 9: FPSanitizer slowdown vs FP baseline (×)",
		Columns: []string{"FPS-512", "FPS-256", "FPS-128"},
	}
	return t, overheadSweep(opts, t, compiled.floatProg, precisionConfigs())
}

// Fig10 measures FPSanitizer at 256 bits with and without tracing
// (paper Figure 10).
func Fig10(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 10: FPSanitizer-256 with vs without tracing (×)",
		Columns: []string{"tracing", "no-tracing"},
	}
	return t, overheadSweep(opts, t, compiled.floatProg, tracingConfigs())
}

// precisionConfigs are the Figure 7/9 columns: 512, 256 and 128 bits.
func precisionConfigs() []shadow.Config {
	return []shadow.Config{shadowConfig(512, true), shadowConfig(256, true), shadowConfig(128, true)}
}

// tracingConfigs are the Figure 8/10 columns: 256 bits with and without
// tracing.
func tracingConfigs() []shadow.Config {
	return []shadow.Config{shadowConfig(256, true), shadowConfig(256, false)}
}

// overheadSweep fills the table with each kernel's slowdown under every
// config over its baseline run, for the kernel form pick selects. The
// baseline and the configs are timed interleaved (Sample), so a host
// slowdown hits every column alike. With opts.Parallel the kernels shard
// across CPUs (rows still land in kernel order; see Options.Parallel for
// why the ratios survive contention).
func overheadSweep(opts Options, t *Table, pick func(compiled) *positdebug.Program, cfgs []shadow.Config) error {
	kernels := append(workloads.PolyBench(), workloads.SpecLike()...)
	workers := 1
	if opts.Parallel {
		workers = parallel.Workers(len(kernels))
	}
	rows, err := parallel.MapN(workers, len(kernels), func(i int) (Row, error) {
		k := kernels[i]
		c, err := compileBoth(k.Source(opts.size(k.DefaultN)))
		if err != nil {
			return Row{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		prog := pick(c)
		runs := []func() error{func() error {
			_, err := prog.Run("main")
			return err
		}}
		for _, cfg := range cfgs {
			runs = append(runs, func() error {
				_, err := prog.Exec("main", positdebug.WithShadow(cfg))
				return err
			})
		}
		d, err := Sample(opts.repeats(), runs...)
		if err != nil {
			return Row{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		vals := make([]float64, len(cfgs))
		for i := range vals {
			vals[i] = slices.Min(d[i+1]) / slices.Min(d[0])
		}
		return Row{Name: k.Name, Values: vals}, nil
	})
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, rows...)
	t.FinishGeomean()
	return nil
}

// HerbgrindTable measures FPSanitizer against the Herbgrind-style runtime
// on the PolyBench kernels with small inputs (paper §5.4: "we observed
// that FPSanitizer was more than 10× faster than Herbgrind").
func HerbgrindTable(opts Options) (*Table, error) {
	t := &Table{
		Title:   "§5.4: Herbgrind-style runtime vs FPSanitizer (slowdowns over FP baseline, ×)",
		Columns: []string{"FPSanitizer", "Herbgrind", "HG/FPS"},
	}
	kernels := workloads.PolyBench()
	workers := 1
	if opts.Parallel {
		workers = parallel.Workers(len(kernels))
	}
	rows, err := parallel.MapN(workers, len(kernels), func(i int) (Row, error) {
		k := kernels[i]
		n := opts.size(k.DefaultN)
		if n > 20 {
			n = 20
		}
		c, err := compileBoth(k.Source(n))
		if err != nil {
			return Row{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		cfg := shadowConfig(256, true)
		d, err := Sample(opts.repeats(), func() error {
			_, err := c.fp.Run("main")
			return err
		}, func() error {
			_, err := c.fp.Exec("main", positdebug.WithShadow(cfg))
			return err
		}, func() error {
			_, err := c.fp.Exec("main", positdebug.WithHerbgrind(256))
			return err
		})
		if err != nil {
			return Row{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		base, fps, hg := slices.Min(d[0]), slices.Min(d[1]), slices.Min(d[2])
		return Row{Name: k.Name, Values: []float64{fps / base, hg / base, hg / fps}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.FinishGeomean()
	return t, nil
}

// SoftPositBaseline measures the cost of software posit arithmetic against
// native float64 on a matrix-multiply in plain Go — the analogue of the
// paper's observation that the software posit baseline is ~11× slower than
// hardware FP. (Inside the interpreter the gap shrinks to ~1.5× because
// dispatch dominates; this native measurement isolates the arithmetic.)
func SoftPositBaseline(n int, repeats int) (ratio float64) {
	af := make([]float64, n*n)
	bf := make([]float64, n*n)
	cf := make([]float64, n*n)
	ap := make([]posit.Posit32, n*n)
	bp := make([]posit.Posit32, n*n)
	cp := make([]posit.Posit32, n*n)
	for i := range af {
		af[i] = float64(i%7) / 7
		bf[i] = float64(i%5) / 5
		ap[i] = posit.P32FromFloat64(af[i])
		bp[i] = posit.P32FromFloat64(bf[i])
	}
	d, _ := Sample(repeats, func() error {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += af[i*n+k] * bf[k*n+j]
				}
				cf[i*n+j] = s
			}
		}
		return nil
	}, func() error {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s posit.Posit32
				for k := 0; k < n; k++ {
					s = s.Add(ap[i*n+k].Mul(bp[k*n+j]))
				}
				cp[i*n+j] = s
			}
		}
		return nil
	})
	return slices.Min(d[1]) / slices.Min(d[0])
}

// DetectionRow is one line of the §5.1 effectiveness table.
type DetectionRow struct {
	Name       string
	Detected   []shadow.Kind
	OutputBits int
	MaxOpBits  int
	DAGSize    int
	Flips      int
}

// DetectionResult aggregates the suite run like the paper's §5.1 text.
type DetectionResult struct {
	Rows []DetectionRow
	// Programs whose worst output error exceeds the thresholds the paper
	// quotes (35/45/52 bits).
	Over35, Over45, Over52 int
	// Per-kind program counts.
	WithCancellation, WithPrecisionLoss, WithFlips, WithCast, WithNaR, WithSaturation int
	// Largest DAG observed.
	LargestDAG int
}

// detectionOutcome carries one program's row plus the summary it was built
// from, so aggregation can stay in the deterministic sequential tail. When
// tracing, events holds the program's buffered event stream, merged into
// the sink in suite order after the parallel phase.
type detectionOutcome struct {
	row    DetectionRow
	sum    *shadow.Summary
	events []obs.Event
}

// RunDetection executes the whole 32-program suite under PositDebug and
// aggregates detections (the §5.1 table). The programs are independent, so
// they shard across CPUs; rows are merged in suite order and detection
// kinds listed in enum order, making the table byte-identical to a
// sequential run.
func RunDetection() (*DetectionResult, error) {
	return RunDetectionOn(backend.Default, nil, nil)
}

// RunDetectionObs is RunDetection with observability attached: each
// program's shadow events (run framing plus detections) are staged in a
// per-case buffer and drained into sink in suite order, with Run stamped
// to the suite index. Because events carry no timestamps and sequence
// numbers are assigned by the terminal sink at merge time, the stream is
// byte-identical no matter how the suite shards across CPUs. A nil sink
// disables tracing; a nil registry disables metrics. Either may be set
// independently.
func RunDetectionObs(sink obs.Sink, reg *obs.Registry) (*DetectionResult, error) {
	return RunDetectionOn(backend.Default, sink, reg)
}

// RunDetectionOn is RunDetectionObs pinned to one execution backend. The
// suite's rows, summaries and event streams are byte-identical across
// backends (the backend differential tests depend on it); the knob exists
// so pdbench can time the suite on each backend.
func RunDetectionOn(bk backend.Kind, sink obs.Sink, reg *obs.Registry) (*DetectionResult, error) {
	return RunDetectionOracle(bk, oracle.BigFP, sink, reg)
}

// RunDetectionOracle is RunDetectionOn with the shadow-arithmetic oracle
// pinned — the cross-oracle differential suite and pdbench's per-oracle
// timing both drive the full §5.1 suite through this entry point.
func RunDetectionOracle(bk backend.Kind, kind oracle.Kind, sink obs.Sink, reg *obs.Registry) (*DetectionResult, error) {
	suite := workloads.Suite()
	if sink != nil {
		e := obs.NewEvent(obs.EvCampaignStart)
		e.Name = "detection-suite"
		sink.Emit(e)
	}
	outcomes, err := parallel.Map(len(suite), func(i int) (detectionOutcome, error) {
		p := suite[i]
		src := p.Source
		if p.FromFP {
			var err error
			src, err = positdebug.RefactorToPosit(src)
			if err != nil {
				return detectionOutcome{}, fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		prog, err := positdebug.Compile(src)
		if err != nil {
			return detectionOutcome{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		cfg := shadow.ConfigFor(kind, 0)
		cfg.ErrBitsThreshold = 35
		cfg.OutputThreshold = 35
		cfg.PrecisionLossThreshold = 8
		opts := []positdebug.Option{positdebug.WithShadow(cfg), positdebug.WithBackend(bk)}
		var log *obs.Log
		if sink != nil {
			log = &obs.Log{}
			opts = append(opts, positdebug.WithTrace(log))
		}
		if reg != nil {
			opts = append(opts, positdebug.WithMetrics(reg))
		}
		res, err := prog.Exec("main", opts...)
		if err != nil {
			return detectionOutcome{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		sum := res.Summary
		row := DetectionRow{
			Name:       p.Name,
			OutputBits: sum.OutputMaxErrBits,
			MaxOpBits:  sum.MaxOpErrBits,
			Flips:      sum.BranchFlips,
		}
		for k := shadow.KindCancellation; k <= shadow.KindWrongOutput; k++ {
			if sum.Counts[k] > 0 {
				row.Detected = append(row.Detected, k)
			}
		}
		for _, r := range sum.Reports {
			if s := r.DAG.Size(); s > row.DAGSize {
				row.DAGSize = s
			}
		}
		oc := detectionOutcome{row: row, sum: sum}
		if log != nil {
			oc.events = log.Events()
		}
		return oc, nil
	})
	if err != nil {
		return nil, err
	}

	out := &DetectionResult{}
	for i, oc := range outcomes {
		if sink != nil {
			for _, e := range oc.events {
				e.Run = i
				sink.Emit(e)
			}
		}
		row, sum := oc.row, oc.sum
		out.Rows = append(out.Rows, row)

		worst := row.OutputBits
		if row.MaxOpBits > worst {
			worst = row.MaxOpBits
		}
		if worst > 35 {
			out.Over35++
		}
		if worst > 45 {
			out.Over45++
		}
		if worst > 52 {
			out.Over52++
		}
		if sum.Has(shadow.KindCancellation) {
			out.WithCancellation++
		}
		if sum.Has(shadow.KindPrecisionLoss) {
			out.WithPrecisionLoss++
		}
		if sum.BranchFlips > 0 {
			out.WithFlips++
		}
		if sum.Has(shadow.KindWrongCast) {
			out.WithCast++
		}
		if sum.Has(shadow.KindNaR) {
			out.WithNaR++
		}
		if sum.Has(shadow.KindSaturation) {
			out.WithSaturation++
		}
		if row.DAGSize > out.LargestDAG {
			out.LargestDAG = row.DAGSize
		}
	}
	if sink != nil {
		e := obs.NewEvent(obs.EvCampaignEnd)
		e.Name = "detection-suite"
		sink.Emit(e)
	}
	return out, nil
}

// String renders the detection table plus the paper-style aggregate line.
func (d *DetectionResult) String() string {
	var sb strings.Builder
	sb.WriteString("§5.1 detection table (32-program suite, PositDebug ⟨32,2⟩, 256-bit shadow)\n")
	fmt.Fprintf(&sb, "%-22s %8s %8s %6s %5s  %s\n", "program", "out-bits", "op-bits", "dag", "flips", "detections")
	for _, r := range d.Rows {
		kinds := make([]string, len(r.Detected))
		for i, k := range r.Detected {
			kinds[i] = k.String()
		}
		fmt.Fprintf(&sb, "%-22s %8d %8d %6d %5d  %s\n",
			r.Name, r.OutputBits, r.MaxOpBits, r.DAGSize, r.Flips, strings.Join(kinds, ","))
	}
	fmt.Fprintf(&sb, "\nprograms with error > 35 bits: %d   > 45 bits: %d   > 52 bits: %d\n",
		d.Over35, d.Over45, d.Over52)
	fmt.Fprintf(&sb, "cancellation: %d   precision loss: %d   branch flips: %d   int casts: %d   NaR: %d   saturation: %d\n",
		d.WithCancellation, d.WithPrecisionLoss, d.WithFlips, d.WithCast, d.WithNaR, d.WithSaturation)
	fmt.Fprintf(&sb, "largest DAG: %d instructions\n", d.LargestDAG)
	return sb.String()
}

// geomeanOf is exposed for the ablation benches.
func geomeanOf(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// KernelErrorRow reports the worst observed error when a benchmark kernel
// runs (as a posit program) under PositDebug.
type KernelErrorRow struct {
	Name       string
	OutputBits int
	MaxOpBits  int
	Flagged    bool // any op or output at/above the threshold
}

// KernelErrors runs every PolyBench and SPEC-like kernel (posit versions)
// under PositDebug and reports which exhibit numerical errors — the
// paper's §5.1 note "we also observed numerical errors in six PolyBench
// and all the SPEC-FP applications".
func KernelErrors(opts Options, thresholdBits int) ([]KernelErrorRow, error) {
	kernels := append(workloads.PolyBench(), workloads.SpecLike()...)
	return parallel.Map(len(kernels), func(i int) (KernelErrorRow, error) {
		k := kernels[i]
		c, err := compileBoth(k.Source(opts.size(k.DefaultN)))
		if err != nil {
			return KernelErrorRow{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		cfg := shadow.DefaultConfig()
		cfg.ErrBitsThreshold = thresholdBits
		cfg.OutputThreshold = thresholdBits
		cfg.MaxReports = 1
		res, err := c.pos.Exec("main", positdebug.WithShadow(cfg))
		if err != nil {
			return KernelErrorRow{}, fmt.Errorf("%s: %w", k.Name, err)
		}
		worst := res.Summary.MaxOpErrBits
		if res.Summary.OutputMaxErrBits > worst {
			worst = res.Summary.OutputMaxErrBits
		}
		return KernelErrorRow{
			Name:       k.Name,
			OutputBits: res.Summary.OutputMaxErrBits,
			MaxOpBits:  res.Summary.MaxOpErrBits,
			Flagged:    worst >= thresholdBits,
		}, nil
	})
}

// FormatKernelErrors renders the kernel error table.
func FormatKernelErrors(rows []KernelErrorRow, thresholdBits int) string {
	var sb strings.Builder
	flagged := 0
	for _, r := range rows {
		if r.Flagged {
			flagged++
		}
	}
	fmt.Fprintf(&sb, "Kernels showing ≥ %d bits of error under PositDebug: %d of %d\n",
		thresholdBits, flagged, len(rows))
	fmt.Fprintf(&sb, "%-16s %10s %10s %8s\n", "kernel", "out-bits", "op-bits", "flagged")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10d %10d %8v\n", r.Name, r.OutputBits, r.MaxOpBits, r.Flagged)
	}
	return sb.String()
}
