// Command perfbench is positdebug's benchmark. It drives the public API
// with default options on three seeded workloads and prints one JSON
// result line:
//
//	kernels   the paper's evaluation loop: Compile, Exec(WithBaseline()),
//	          Exec() over every PolyBench and SPEC-like kernel, posit and f64
//	serve     an in-process server on loopback, two closed-loop clients
//	campaign  fault-injection campaigns through a fabric coordinator to two
//	          in-process workers
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload untraced and then traced (the difference is the tracing
// overhead), writes the spans to .bench_build/results, and times every
// layer from outside by calling its public functions. Usage, from the
// repository root:
//
//	python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// measurement is a workload's figures for one run.
type measurement struct {
	tally   *tally
	metrics map[string]metric
	tracer  *tracer // non-nil for traced runs
	notes   []string
}

// End-to-end metrics, reported by every workload with tracing off. Times
// are CPU times (see cpu.go); what a unit of work is depends on the
// workload; see README.md.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_cpu_s"
	mP50        = "cpu_p50_ms"
	mTail       = "cpu_tail_ms"
	mPeakHeap   = "peak_heap_mb"
)

var workloadsByName = map[string]func(runConfig) (*measurement, error){
	"kernels":  runKernels,
	"serve":    runServe,
	"campaign": runCampaign,
}

// provenance records what produced a result.
type provenance struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Command    []string `json:"command"`
	Time       string   `json:"time"`
}

// sourceCommit identifies the code measured: the git revision when the
// build recorded one, else a digest of every Go source and module file
// under the working directory (a benchmark checkout need not be a git
// repository).
func sourceCommit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	name := flag.String("workload", "", "workload: kernels, serve or campaign")
	seed := flag.Int64("seed", 1, "workload seed; every input is a pure function of it")
	seconds := flag.Int("seconds", 10, "minimum measured seconds per run")
	trace := flag.Int("trace", 0, "1 times each layer from outside; 0 reports end-to-end metrics")
	flag.Parse()
	run, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload kernels|serve|campaign, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	prov := provenance{
		Commit: sourceCommit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Workload: *name, Seed: *seed, Seconds: float64(*seconds), Trace: *trace == 1,
		Command: os.Args, Time: time.Now().UTC().Format(time.RFC3339),
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	m, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := result{
		Correct:   m.tally.failed == 0,
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed,
		Metrics:   m.metrics,
	}
	for _, n := range m.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, e := range m.tally.examples {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: error_rate %d/%d\n", res.Failed, res.Attempted)
	stem := fmt.Sprintf(".bench_build/results/%s-seed%d-trace%d", *name, *seed, *trace)
	if m.tracer != nil {
		if err := writeTrace(stem+".trace.json", prov, m.tracer, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	if err := writeResult(stem+".json", prov, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeResult keeps the result with its provenance next to the build.
func writeResult(path string, prov provenance, res result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     result     `json:"result"`
	}{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// passLoop runs whole passes until at least d has elapsed and enough holds
// for the number of passes done, and returns that number. Stopping only
// at pass boundaries keeps the mix of work identical across seeds.
func passLoop(d time.Duration, enough func(passes int) bool, pass func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i == 0 || time.Since(start) < d || !enough(i); i++ {
		if err := pass(i); err != nil {
			return i, err
		}
	}
	return i, nil
}
