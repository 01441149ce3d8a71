package main

import (
	"fmt"
	"os"
	"runtime"

	positdebug "positdebug"
	"positdebug/internal/harness"
	"positdebug/internal/profile"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// ProfileBenchRow is one profiling variant's measurement: how much a
// shadow run costs with the numerical-error profiler attached at a given
// sampling stride, and what fraction of dynamic compute instances the
// stride actually error-checked (the accuracy side of the tradeoff).
type ProfileBenchRow struct {
	Name string `json:"name"`
	// Sample is the stride: 0 = uninstrumented baseline, 1 = full shadow.
	Sample int `json:"sample"`
	// NsPerOp is the median over profileReps interleaved samples.
	NsPerOp float64 `json:"ns_per_op"`
	// SpreadPct is the samples' quartile spread over that median.
	SpreadPct float64 `json:"spread_pct"`
	// Slowdown is NsPerOp over the uninstrumented baseline's.
	Slowdown float64 `json:"slowdown_vs_baseline"`
	// CheckedOps / TotalOps are per-run dynamic compute instances checked
	// against the shadow oracle vs executed (profiled variants only).
	CheckedOps int64   `json:"checked_ops,omitempty"`
	TotalOps   int64   `json:"total_ops,omitempty"`
	CheckedPct float64 `json:"checked_pct,omitempty"`
}

// ProfileReport is the file format of BENCH_profile.json.
type ProfileReport struct {
	Provenance
	Go         string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Kernel     string            `json:"kernel"`
	N          int               `json:"n"`
	Rows       []ProfileBenchRow `json:"rows"`
}

// The kernel and size every -profile and -fabric row runs.
const (
	benchKernel = "gemm"
	benchN      = 8
)

// profileReps is how many interleaved samples each variant gets, and
// profileBatch how many runs one sample times.
const (
	profileReps  = 21
	profileBatch = 40
)

// profileBench measures the full-shadow vs sampled-shadow overhead
// tradeoff on one PolyBench kernel: uninstrumented baseline, plain shadow
// execution, and shadow execution with the profiler at strides 1/4/16/64.
// Every row times Program.Exec runs on the default backend, the baseline
// with WithBaseline, so the numbers compare per-run cost like for like.
func profileBench(out string) error {
	k, ok := workloads.KernelByName(benchKernel)
	if !ok {
		return fmt.Errorf("no kernel %q", benchKernel)
	}
	psrc, err := positdebug.RefactorToPosit(k.Source(benchN))
	if err != nil {
		return err
	}
	prog, err := positdebug.Compile(psrc)
	if err != nil {
		return err
	}
	prog.SetSourceName(benchKernel)
	mod := prog.Instrumented()
	cfg := shadow.DefaultConfig()
	cfg.Tracing = false
	cfg.MaxReports = 1

	type variant struct {
		row  ProfileBenchRow
		opts []positdebug.Option
		col  *profile.Collector // profiled variants only
	}
	variants := []variant{
		{row: ProfileBenchRow{Name: "baseline"}, opts: []positdebug.Option{positdebug.WithBaseline()}},
		{row: ProfileBenchRow{Name: "shadow", Sample: 1}, opts: []positdebug.Option{positdebug.WithShadow(cfg)}},
	}
	for _, stride := range []int{1, 4, 16, 64} {
		col := profile.NewCollector()
		variants = append(variants, variant{
			row:  ProfileBenchRow{Name: fmt.Sprintf("profile/sample-%d", stride), Sample: stride},
			opts: []positdebug.Option{positdebug.WithShadow(cfg), positdebug.WithProfile(col), positdebug.WithSampling(stride)},
			col:  col,
		})
	}
	runs := make([]func() error, len(variants))
	for i, v := range variants {
		runs[i] = func() error {
			for range profileBatch {
				if _, err := prog.Exec("main", v.opts...); err != nil {
					return err
				}
			}
			return nil
		}
	}
	samples, err := harness.Sample(profileReps, runs...)
	if err != nil {
		return err
	}

	rep := &ProfileReport{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: benchKernel, N: benchN,
	}
	var baseNs float64
	for i, v := range variants {
		row := v.row
		q1, med, q3 := harness.Quartiles(samples[i])
		row.NsPerOp = med * 1e9 / profileBatch
		row.SpreadPct = 100 * (q3 - q1) / med
		if baseNs == 0 {
			baseNs = row.NsPerOp
		}
		row.Slowdown = row.NsPerOp / baseNs
		if v.col != nil {
			// The collector holds every sampled run.
			n := int64(profileReps * profileBatch)
			snap := v.col.Snapshot(mod, benchKernel, "posit32", n, int64(row.Sample))
			for _, ip := range snap.Insts {
				row.CheckedOps += ip.Checked
				row.TotalOps += ip.Count
			}
			row.CheckedOps /= n
			row.TotalOps /= n
			if row.TotalOps > 0 {
				row.CheckedPct = 100 * float64(row.CheckedOps) / float64(row.TotalOps)
			}
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "%-26s %14.2f ns/op (spread %4.1f%%) %8.2fx baseline", row.Name, row.NsPerOp, row.SpreadPct, row.Slowdown)
		if row.TotalOps > 0 {
			fmt.Fprintf(os.Stderr, "  checked %5.1f%% of ops", row.CheckedPct)
		}
		fmt.Fprintln(os.Stderr)
	}

	return writeReport(out, rep)
}
