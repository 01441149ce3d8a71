// Command pdfault runs deterministic fault-injection campaigns against
// PositDebug workloads and reports the resilience breakdown — masked, SDC,
// detected, crashed, hung — per architecture (posit vs float), using the
// shadow-execution oracle as the detector.
//
// Usage:
//
//	pdfault -workload polybench/gemm -seed 42 -model bitflip -runs 200
//
// The whole campaign is a pure function of the seed: rerunning with the
// same flags yields a byte-identical report (use -json to diff). The same
// holds for the -trace event stream: events are staged per run and merged
// in run order, so the trace is byte-identical regardless of GOMAXPROCS
// (unless -trace-workers adds the scheduling-dependent lifecycle events).
//
// Long campaigns are crash-safe with -journal: every completed run is
// write-ahead-logged (fsync'd per record), and rerunning the same command
// resumes past the journaled runs — the resumed report is byte-identical
// to an uninterrupted one. -timeout bounds the whole campaign's wall
// clock, and Ctrl-C/SIGTERM stop it cooperatively; both paths leave the
// journal resumable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/faultinject"
	"positdebug/internal/interp"
	"positdebug/internal/obs"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

func main() {
	workload := flag.String("workload", "polybench/gemm", "workload: polybench/<kernel>, spec/<kernel>, suite/<program>")
	n := flag.Int("n", 0, "problem size (0 = campaign default)")
	runs := flag.Int("runs", 100, "fault-injected runs per architecture")
	seed := flag.Int64("seed", 1, "campaign seed (determines every fault)")
	model := flag.String("model", "bitflip", "fault kind: bitflip|multiflip|nar|saturate")
	ops := flag.String("ops", "all", "injectable op classes: comma list of arith,const,cast,load,store,call or all")
	bit := flag.Int("bit", -1, "pin flipped bit position (-1 = random per injection)")
	flips := flag.Int("flips", 2, "bits flipped per multiflip injection")
	rate := flag.Float64("rate", 0, "per-event injection probability (0 = single fault per run)")
	occ := flag.Int64("occ", 0, "pin injection to the k-th eligible event (0 = sweep sites)")
	inst := flag.Int("inst", -1, "restrict injection to one static instruction id (-1 = any)")
	arch := flag.String("arch", "posit", "architecture: posit|float|both")
	runTimeout := flag.Duration("run-timeout", 10*time.Second, "wall-clock limit per run")
	timeout := flag.Duration("timeout", 0, "whole-campaign deadline (0 = none); an expired deadline cancels the sweep cooperatively")
	journalPath := flag.String("journal", "", "crash-safe JSONL write-ahead journal: completed runs are fsync'd here and resumed on rerun")
	maxSteps := flag.Int64("max-steps", 200_000_000, "step budget per run")
	prec := flag.Uint("prec", 256, "bigfp shadow precision in bits")
	oracleFlag := flag.String("oracle", "bigfp", "shadow oracle: bigfp|dd|residue")
	budget := flag.Int64("budget", 0, "shadow-memory budget in bytes (0 = unlimited; over-budget runs degrade)")
	threshold := flag.Int("threshold", 10, "masked threshold in output error bits (0 = default 10, -1 = exact match)")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	schedules := flag.Bool("schedules", false, "embed per-run fault schedules in the JSON report")
	tracePath := flag.String("trace", "", "write a JSON-lines campaign event trace to this file ('-' = stderr)")
	traceWorkers := flag.Bool("trace-workers", false, "include worker lifecycle events in the trace (scheduling-dependent)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text metrics dump to this file ('-' = stderr)")
	list := flag.Bool("list", false, "list available workloads and exit")
	backendFlag := flag.String("backend", "", "execution backend: vm|treewalk (default vm; treewalk is the reference interpreter)")
	flag.Parse()

	if *list {
		listWorkloads()
		return
	}

	kind, err := faultinject.KindByName(*model)
	if err != nil {
		fail(err)
	}
	classes, err := faultinject.ClassByName(*ops)
	if err != nil {
		fail(err)
	}
	bk, err := backend.Parse(*backendFlag)
	if err != nil {
		fail(err)
	}
	orc, err := oracle.Parse(*oracleFlag)
	if err != nil {
		fail(err)
	}

	cfg := faultinject.CampaignConfig{
		Workload: *workload,
		N:        *n,
		Arch:     *arch,
		Runs:     *runs,
		Seed:     *seed,
		Model: faultinject.Model{
			Kind:       kind,
			FlipBits:   *flips,
			BitPos:     *bit,
			Ops:        classes,
			InstID:     int32(*inst),
			Occurrence: *occ,
			Rate:       *rate,
		},
		Timeout:        *runTimeout,
		MaxSteps:       *maxSteps,
		Precision:      *prec,
		Oracle:         orc,
		MaxShadowBytes: *budget,
		MaskedBits:     *threshold,
		KeepSchedules:  *schedules,
		Backend:        bk,
	}
	var sink *obs.JSONLines
	var traceFile *os.File
	if *tracePath != "" {
		var err error
		traceFile, err = outFile(*tracePath)
		if err != nil {
			fail(err)
		}
		sink = obs.NewJSONLines(traceFile)
		cfg.Trace = sink
		cfg.TraceWorkers = *traceWorkers
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	resumed := 0
	if *journalPath != "" {
		journal, err := faultinject.OpenJournal(*journalPath, cfg)
		if err != nil {
			fail(err)
		}
		defer journal.Close()
		if resumed = journal.Resumed(); resumed > 0 {
			fmt.Fprintf(os.Stderr, "pdfault: resuming past %d journaled runs\n", resumed)
		}
		cfg.Journal = journal
	}

	// One context carries both hard-stop paths: the whole-campaign
	// deadline and Ctrl-C/SIGTERM. Either cancels the sweep cooperatively —
	// the run in flight stops within one interpreter poll interval — and
	// with -journal the completed prefix stays resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := faultinject.RunCampaignContext(ctx, cfg)
	if err != nil {
		var c *interp.Cancelled
		if errors.As(err, &c) && *journalPath != "" {
			fmt.Fprintln(os.Stderr, "pdfault: campaign interrupted; rerun the same command to resume from the journal")
		}
		fail(err)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := closeFile(traceFile); err != nil {
			fail(err)
		}
	}
	if reg != nil {
		f, err := outFile(*metricsPath)
		if err != nil {
			fail(err)
		}
		if err := reg.WriteProm(f); err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		if err := closeFile(f); err != nil {
			fail(err)
		}
	}

	// The resume split goes to stderr in both output modes: how much of
	// the campaign was replayed from the journal versus executed now is
	// the first thing to check when a resumed run finishes suspiciously
	// fast (or slow).
	if cfg.Journal != nil {
		total := rep.Runs * len(rep.Arches)
		fmt.Fprintf(os.Stderr, "pdfault: %d of %d runs replayed from journal, %d executed this invocation\n",
			resumed, total, total-resumed)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(rep)
}

func listWorkloads() {
	var names []string
	for _, k := range workloads.PolyBench() {
		names = append(names, "polybench/"+k.Name)
	}
	for _, k := range workloads.SpecLike() {
		names = append(names, "spec/"+k.Name)
	}
	for _, p := range workloads.Suite() {
		names = append(names, "suite/"+p.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n)
	}
}

// outFile opens path for writing; "-" means stderr, keeping stdout clean
// for the campaign report.
func outFile(path string) (*os.File, error) {
	if path == "-" {
		return os.Stderr, nil
	}
	return os.Create(path)
}

func closeFile(f *os.File) error {
	if f == os.Stderr {
		return nil
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pdfault:", err)
	os.Exit(1)
}
