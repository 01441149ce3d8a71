package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	positdebug "positdebug"
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
	// NsPerOp is the median over profileReps interleaved repetitions.
	NsPerOp float64 `json:"ns_per_op"`
	// SpreadPct is the repetitions' range (max − min) over that median.
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

// profileReps is how many times each variant is timed. The variants take
// turns, so a stretch of host noise lands on neighbouring samples of every
// variant and the per-variant median drops it.
const profileReps = 5

// profileBench measures the full-shadow vs sampled-shadow overhead
// tradeoff on one PolyBench kernel: uninstrumented baseline, plain shadow
// execution, and shadow execution with the profiler at strides 1/4/16/64.
// Every row times one Program.Exec per run on the default backend, the
// baseline with WithBaseline, so the numbers compare per-run cost like for
// like.
func profileBench(out, kernel string, n int) error {
	k, ok := workloads.KernelByName(kernel)
	if !ok {
		return fmt.Errorf("no kernel %q", kernel)
	}
	psrc, err := positdebug.RefactorToPosit(k.Source(n))
	if err != nil {
		return err
	}
	prog, err := positdebug.Compile(psrc)
	if err != nil {
		return err
	}
	prog.SetSourceName(kernel)
	mod := prog.Instrumented()
	cfg := shadow.DefaultConfig()
	cfg.Tracing = false
	cfg.MaxReports = 1

	type variant struct {
		row ProfileBenchRow
		run func() error
		col *profile.Collector // profiled variants only
		ns  []float64
		n   int // runs in the last timed round
	}
	execRun := func(opts ...positdebug.Option) func() error {
		return func() error { _, err := prog.Exec("main", opts...); return err }
	}
	variants := []*variant{
		{row: ProfileBenchRow{Name: "baseline"}, run: execRun(positdebug.WithBaseline())},
		{row: ProfileBenchRow{Name: "shadow", Sample: 1}, run: execRun(positdebug.WithShadow(cfg))},
	}
	for _, stride := range []int{1, 4, 16, 64} {
		col := profile.NewCollector()
		variants = append(variants, &variant{
			row: ProfileBenchRow{Name: fmt.Sprintf("profile/sample-%d", stride), Sample: stride},
			run: execRun(positdebug.WithShadow(cfg), positdebug.WithProfile(col), positdebug.WithSampling(stride)),
			col: col,
		})
	}
	for range profileReps {
		for _, v := range variants {
			r := testing.Benchmark(func(b *testing.B) {
				// testing.Benchmark calls this once per round with a
				// growing b.N: start each round empty, so the collector
				// ends up holding exactly the final round's r.N runs.
				if v.col != nil {
					v.col.Reset()
				}
				for i := 0; i < b.N; i++ {
					if err := v.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			v.ns = append(v.ns, float64(r.T.Nanoseconds())/float64(r.N))
			v.n = r.N
		}
	}

	rep := &ProfileReport{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: kernel, N: n,
	}
	var baseNs float64
	for _, v := range variants {
		row := v.row
		sort.Float64s(v.ns)
		row.NsPerOp = v.ns[len(v.ns)/2]
		row.SpreadPct = 100 * (v.ns[len(v.ns)-1] - v.ns[0]) / row.NsPerOp
		if baseNs == 0 {
			baseNs = row.NsPerOp
		}
		row.Slowdown = row.NsPerOp / baseNs
		if v.col != nil {
			snap := v.col.Snapshot(mod, kernel, "posit32", int64(v.n), int64(row.Sample))
			for _, ip := range snap.Insts {
				row.CheckedOps += ip.Checked
				row.TotalOps += ip.Count
			}
			row.CheckedOps /= int64(v.n)
			row.TotalOps /= int64(v.n)
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
