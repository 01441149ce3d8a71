// Command pdprof records, merges and inspects numerical-error profiles:
// per-static-instruction aggregates of ULP error, cancellation severity,
// saturation/NaR counts and (optionally) shadow-op latency, keyed by
// source position.
//
// Usage:
//
//	pdprof record -kernel gemm -runs 4 -o gemm.pdprof.json
//	pdprof record -kernel gemm -sample 16 -trace gemm.trace.json -o sampled.json
//	pdprof merge -o merged.json worker0.json worker1.json
//	pdprof top -n 20 merged.json
//	pdprof diff before.json after.json
//
// Profiles are canonical JSON: the same sweep produces byte-identical
// files whatever the worker count, so profiles diff cleanly and merge
// order never matters. The -trace output is Chrome trace-event JSON —
// load it in Perfetto (ui.perfetto.dev) or chrome://tracing; its
// timestamps are virtual sequence numbers, so it too is deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"positdebug/internal/harness"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow/oracle"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pdprof: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdprof:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pdprof record -kernel <name> [-n N] [-fp] [-runs R] [-workers W]
                [-sample S] [-timing] [-prec P] [-oracle bigfp|dd|residue] [-trace file] [-o file]
  pdprof merge  -o <file> <profile.json>...
  pdprof top    [-n N] <profile.json>
  pdprof diff   <a.json> <b.json>`)
}

// outFile opens path for writing, with "" and "-" meaning stdout.
func outFile(path string) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func writeProfile(p *profile.Profile, path string) error {
	w, closeFn, err := outFile(path)
	if err != nil {
		return err
	}
	if err := p.WriteJSON(w); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

func readProfile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := profile.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("pdprof record", flag.ExitOnError)
	kernel := fs.String("kernel", "gemm", "workload kernel (PolyBench or SPEC-like)")
	n := fs.Int("n", 0, "problem size (0 = small default)")
	fp := fs.Bool("fp", false, "profile the FP original under FPSanitizer instead of the posit refactoring")
	runs := fs.Int("runs", 1, "dynamic runs aggregated into the profile")
	workers := fs.Int("workers", 0, "worker count (0 = GOMAXPROCS); the merged profile is identical either way")
	sample := fs.Int("sample", 1, "shadow every Sth dynamic instance per static instruction (1 = full shadow)")
	timing := fs.Bool("timing", false, "record shadow-op latency (makes the profile nondeterministic)")
	prec := fs.Uint("prec", 0, "bigfp shadow precision in bits (0 = default)")
	oracleFlag := fs.String("oracle", "bigfp", "shadow oracle: bigfp|dd|residue")
	tracePath := fs.String("trace", "", "also write a Chrome trace-event JSON of the sweep (Perfetto-loadable)")
	out := fs.String("o", "", "profile output file (default stdout)")
	fs.Parse(args)

	orc, err := oracle.Parse(*oracleFlag)
	if err != nil {
		return err
	}

	var log *obs.Log
	var sink obs.Sink
	if *tracePath != "" {
		log = &obs.Log{}
		sink = log
	}
	p, err := harness.RecordProfile(harness.ProfileOptions{
		Kernel:    *kernel,
		N:         *n,
		Posit:     !*fp,
		Runs:      *runs,
		Workers:   *workers,
		Sample:    *sample,
		Timing:    *timing,
		Precision: *prec,
		Oracle:    orc,
		Trace:     sink,
	})
	if err != nil {
		return err
	}
	if log != nil {
		w, closeFn, err := outFile(*tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(w, log.Events()); err != nil {
			closeFn()
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	return writeProfile(p, *out)
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("pdprof merge", flag.ExitOnError)
	out := fs.String("o", "", "merged profile output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: no input profiles")
	}
	ps := make([]*profile.Profile, 0, fs.NArg())
	for _, path := range fs.Args() {
		p, err := readProfile(path)
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	merged, err := profile.MergeAll(ps...)
	if err != nil {
		return err
	}
	return writeProfile(merged, *out)
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("pdprof top", flag.ExitOnError)
	n := fs.Int("n", 20, "instructions to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("top: want exactly one profile, got %d", fs.NArg())
	}
	p, err := readProfile(fs.Arg(0))
	if err != nil {
		return err
	}
	return p.WriteTop(os.Stdout, *n)
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("pdprof diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two profiles, got %d", fs.NArg())
	}
	a, err := readProfile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readProfile(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, err := profile.Diff(a, b)
	if err != nil {
		return err
	}
	return profile.WriteDiff(os.Stdout, rows)
}
