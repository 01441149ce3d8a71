// Command pdbench runs the repository's performance benchmark suite via
// testing.Benchmark and emits a machine-readable JSON report — the artifact
// behind `make bench-json` (checked in as BENCH_shadow.json) and the CI
// bench-smoke job.
//
// Usage:
//
//	pdbench                      # full suite to stdout
//	pdbench -out BENCH.json      # write the report to a file
//	pdbench -short               # codec, exec-run and oracle rows only
//	pdbench -strict              # exit nonzero when a twin row fails its gate
//	pdbench -profile -out BENCH_profile.json   # profiler overhead on gemm n=8
//	pdbench -fabric -out BENCH_fabric.json     # distributed campaign rows
//
// The shadow and sweep rows run on the tree-walker under their canonical
// names and on the VM under name@vm; the shadow rows also run under the
// dd and residue oracles (name@dd, name@residue), next to one
// multiply-accumulate row per oracle. Each twin is compared with its
// canonical row from the same report, on stderr: a twin more than 10%
// slower, or dd arithmetic less than 2x faster than bigfp, is flagged,
// and -strict turns a flag into a nonzero exit. The twins are single
// testing.Benchmark runs, so a flag can be host noise.
//
// The -profile and -fabric rows compare whole runs side by side, timed by
// harness.Sample: every variant runs once per repetition, in turn, and
// each row records the median of its samples and their quartile spread.
//
// Every report records the commit checked out when it was produced (git
// rev-parse HEAD; empty outside a git work tree), whether tracked files
// differed from it, and the pdbench argument list. `make bench`
// regenerates the checked-in reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/posit"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

// Bench is one benchmark's measurement.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Provenance records what produced a report; every report embeds it.
type Provenance struct {
	Commit string `json:"commit"`
	// Dirty is set when tracked files differed from Commit, so the report
	// measured uncommitted code on top of it. Changes to the BENCH_*.json
	// reports themselves do not count: `make bench` rewrites them in turn.
	Dirty   bool     `json:"dirty"`
	Command []string `json:"command"`
}

// stamp records the commit checked out (git rev-parse HEAD; empty when git
// or the work tree is unavailable), whether the tree was dirty, and the
// pdbench argument list.
func (p *Provenance) stamp() {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no",
		"--", ":/", ":(top,exclude)BENCH_*.json").Output(); err == nil {
		p.Dirty = len(out) > 0
	}
	p.Command = append([]string{"pdbench"}, os.Args[1:]...)
}

// writeReport stamps rep's provenance and writes it as indented JSON to
// the file out, or to stdout when out is empty.
func writeReport(out string, rep interface{ stamp() }) error {
	rep.stamp()
	j, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	j = append(j, '\n')
	if out == "" {
		_, err = os.Stdout.Write(j)
		return err
	}
	return os.WriteFile(out, j, 0o644)
}

// Report is the file format of BENCH_shadow.json.
type Report struct {
	Provenance
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Short      bool    `json:"short"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	short := flag.Bool("short", false, "codec, exec-run and oracle rows only (CI smoke)")
	strict := flag.Bool("strict", false, "exit nonzero if a @vm/@dd/@residue row is more than 10% slower than its canonical row or dd arithmetic is less than 2x faster than bigfp; with -fabric, if trace overhead exceeds 5%")
	profileMode := flag.Bool("profile", false, "benchmark the numerical-error profiler instead: full-shadow vs sampled-shadow overhead (BENCH_profile.json)")
	fabricMode := flag.Bool("fabric", false, "benchmark the distributed campaign fabric instead: 1- vs 3-worker throughput, trace overhead and merge latency (BENCH_fabric.json)")
	flag.Parse()

	if *profileMode {
		if err := profileBench(*out); err != nil {
			fatal(err)
		}
		return
	}
	if *fabricMode {
		if err := fabricBench(*out, *strict); err != nil {
			fatal(err)
		}
		return
	}

	rep := &Report{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Short: *short,
	}
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, Bench{
			Name: name, Iterations: r.N, NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-28s %12d iters %14.2f ns/op %8d B/op %6d allocs/op\n",
			name, r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	codecBenches(add)
	for _, k := range backend.Kinds() {
		// The tree-walker keeps the canonical bench names; the VM's rows
		// are recorded side by side under name@vm for compareBackends.
		suffix := ""
		if k != backend.Treewalk {
			suffix = "@" + k.String()
		}
		shadowBenches(add, k, benchShadowConfig(oracle.BigFP), suffix)
		if !*short {
			sweepBenches(add, k, suffix)
		}
	}
	// dd and residue get their own rows on the tree-walker next to bigfp's
	// — the per-oracle speed/precision frontier (shadow/gemm8-exec-run@dd
	// and friends) that compareOracles reads.
	oracleArithBenches(add, oracle.BigFP, "")
	for _, orc := range []oracle.Kind{oracle.DD, oracle.Residue} {
		oracleArithBenches(add, orc, "@"+string(orc))
		shadowBenches(add, backend.Treewalk, benchShadowConfig(orc), "@"+string(orc))
	}

	if err := writeReport(*out, rep); err != nil {
		fatal(err)
	}

	regressed := compareBackends(rep)
	if compareOracles(rep) {
		regressed = true
	}
	if regressed && *strict {
		fatal(fmt.Errorf("a twin row failed its gate (more than %d%% slower than its canonical row, or dd arithmetic under 2x bigfp)", regressPct))
	}
}

// benchShadowConfig is the shadow configuration the shadow benches run
// under: the given oracle at its default precision (256 bits for bigfp),
// tracing off and reporting capped, so the rows measure shadow arithmetic
// rather than report construction.
func benchShadowConfig(orc oracle.Kind) shadow.Config {
	cfg := shadow.ConfigFor(orc, 0)
	cfg.Tracing = false
	cfg.MaxReports = 1
	return cfg
}

// oracleArithBenches isolates the cost the oracle choice actually
// controls: one shadowed multiply-accumulate (the gemm inner-loop op) plus
// the ULP error check, with every interpreter and metadata cost stripped
// away. These are the speed axis of the speed/precision frontier; the
// dd-vs-bigfp 2x gate in compareOracles reads them.
func oracleArithBenches(add func(string, func(b *testing.B)), orc oracle.Kind, suffix string) {
	o, err := oracle.New(orc, 0)
	if err != nil {
		fatal(err)
	}
	add("oracle/muladd-ulps"+suffix, func(b *testing.B) {
		var acc, x, y, prod oracle.Value
		o.SetFloat64(&acc, 0)
		o.SetFloat64(&x, 1.375)
		o.SetFloat64(&y, 0.8125)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.Mul(&prod, &x, &y)
			o.Add(&acc, &acc, &prod)
			_ = o.Ulps(1.1171875, &prod)
		}
	})
}

// compareBackends diffs each benchmark recorded under a non-canonical
// backend (name@vm) against its canonical twin from the same report and
// flags the pair when the alternate backend is slower beyond regressPct —
// the guard that keeps the fused-superinstruction VM from quietly losing
// its advantage over the tree-walker.
func compareBackends(rep *Report) bool {
	byName := make(map[string]Bench, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	regressed := false
	header := false
	for _, b := range rep.Benchmarks {
		at := strings.LastIndex(b.Name, "@")
		if at < 0 {
			continue
		}
		if _, err := oracle.Parse(b.Name[at+1:]); err == nil {
			continue // oracle rows are diffed by compareOracles
		}
		base, ok := byName[b.Name[:at]]
		if !ok || base.NsPerOp == 0 {
			continue
		}
		if !header {
			fmt.Fprintln(os.Stderr, "\nbackend comparison:")
			header = true
		}
		delta := 100 * (b.NsPerOp - base.NsPerOp) / base.NsPerOp
		mark := ""
		if delta > regressPct {
			mark = fmt.Sprintf("  ** %s slower than %s by > %d%% **", b.Name[at+1:], b.Name[:at], regressPct)
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "  %-28s %14.2f ns/op  %+7.1f%% vs %s%s\n",
			b.Name, b.NsPerOp, delta, b.Name[:at], mark)
	}
	return regressed
}

// compareOracles diffs each benchmark recorded under a non-canonical
// shadow oracle (name@dd, name@residue) against its bigfp twin — the
// speed/precision frontier. The comparison is also a gate: the
// double-double oracle exists to be cheap, so its oracle/ arithmetic row
// must stay at least 2x faster than bigfp-256, and any other oracle row
// slower than bigfp beyond regressPct counts as a regression.
func compareOracles(rep *Report) bool {
	byName := make(map[string]Bench, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	regressed := false
	header := false
	for _, b := range rep.Benchmarks {
		at := strings.LastIndex(b.Name, "@")
		if at < 0 {
			continue
		}
		kind, err := oracle.Parse(b.Name[at+1:])
		if err != nil {
			continue // backend rows belong to compareBackends
		}
		base, ok := byName[b.Name[:at]]
		if !ok || base.NsPerOp == 0 || b.NsPerOp == 0 {
			continue
		}
		if !header {
			fmt.Fprintln(os.Stderr, "\noracle comparison:")
			header = true
		}
		speedup := base.NsPerOp / b.NsPerOp
		mark := ""
		switch {
		case kind == oracle.DD && strings.HasPrefix(b.Name, "oracle/") && speedup < 2:
			// The oracle choice controls the per-op shadow arithmetic, so
			// that is where dd's 2x-over-bigfp-256 contract is enforced; the
			// end-to-end gemm rows (interpreter dispatch + metadata
			// bookkeeping shared by every oracle) are gated below at
			// "not slower".
			mark = "  ** dd arithmetic lost its 2x advantage over bigfp-256 **"
			regressed = true
		case b.NsPerOp > base.NsPerOp*(1+regressPct/100.0):
			mark = fmt.Sprintf("  ** %s slower than bigfp by > %d%% **", kind, regressPct)
			regressed = true
		}
		fmt.Fprintf(os.Stderr, "  %-32s %14.2f ns/op  %6.2fx vs %s%s\n",
			b.Name, b.NsPerOp, speedup, b.Name[:at], mark)
	}
	return regressed
}

// regressPct is the ns/op slowdown beyond which a twin row counts as a
// regression against its canonical row.
const regressPct = 10

// codecBenches: raw posit arithmetic, fast paths vs the generic pipeline
// (mirrors BenchmarkAblationPositFast).
func codecBenches(add func(string, func(b *testing.B))) {
	x32, y32 := posit.Config32.FromFloat64(1.375), posit.Config32.FromFloat64(0.8125)
	x16, y16 := posit.Config16.FromFloat64(1.375), posit.Config16.FromFloat64(0.8125)
	x8, y8 := posit.Config8.FromFloat64(1.375), posit.Config8.FromFloat64(0.8125)
	add("posit/p16-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config16.Add(x16, y16)
		}
	})
	add("posit/p16-mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config16.Mul(x16, y16)
		}
	})
	add("posit/p16-add-generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config16.GenericAdd(x16, y16)
		}
	})
	add("posit/p16-mul-generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config16.GenericMul(x16, y16)
		}
	})
	add("posit/p8-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config8.Add(x8, y8)
		}
	})
	add("posit/p32-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config32.Add(x32, y32)
		}
	})
	add("posit/p32-mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config32.Mul(x32, y32)
		}
	})
	add("posit/p32-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = posit.Config32.Decode(x32)
		}
	})
}

// shadowBenches: shadow execution of a small posit kernel, one
// Program.Exec per run: a new machine and runtime built from recycled
// memory images, shadow pages and the program's cached bytecode, the shape
// of every served request, campaign run and profile run. cfg picks the
// shadow oracle the rows are measured under (see benchShadowConfig).
func shadowBenches(add func(string, func(b *testing.B)), bk backend.Kind, cfg shadow.Config, suffix string) {
	k, ok := workloads.KernelByName("gemm")
	if !ok {
		fatal(fmt.Errorf("no gemm kernel"))
	}
	psrc, err := positdebug.RefactorToPosit(k.Source(8))
	if err != nil {
		fatal(err)
	}
	prog, err := positdebug.Compile(psrc)
	if err != nil {
		fatal(err)
	}
	add("shadow/gemm8-exec-run"+suffix, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Exec("main", positdebug.WithShadow(cfg), positdebug.WithBackend(bk)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepBenches: end-to-end figure-scale work — the §5.1 detection suite and
// a 20-run fault-injection campaign, both sharded by internal/parallel.
func sweepBenches(add func(string, func(b *testing.B)), bk backend.Kind, suffix string) {
	add("harness/detect-suite"+suffix, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunDetectionOn(bk, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	ccfg := faultinject.CampaignConfig{
		Workload: "polybench/gemm", N: 8, Runs: 20, Seed: 42, Backend: bk,
	}
	add("campaign/gemm8-20runs"+suffix, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := faultinject.RunCampaign(ccfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdbench:", err)
	os.Exit(1)
}
