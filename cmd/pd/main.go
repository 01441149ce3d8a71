// Command pd is the PositDebug command-line driver: it compiles a PCL
// posit program, applies the shadow-execution instrumentation, runs it,
// and reports detected numerical errors with their instruction DAGs —
// the workflow of the paper's §4.2 prototype.
//
// Usage:
//
//	pd [flags] program.pcl
//
// Observability:
//
//	pd -trace out.jsonl -dot out.dot -metrics out.prom program.pcl
//
// writes a structured JSON-lines event trace (run framing, detections,
// degradations), the error DAGs as Graphviz DOT, and a Prometheus text
// metrics dump (detections by kind, ULP-error histograms, executed steps)
// alongside the normal report. For time attributed to source lines, use
// pdprof record -timing.
//
// Environment (mirroring the paper's prototype):
//
//	PD_ERROR_THRESHOLD  per-op error bits threshold (default 45)
//	PD_REPORT_LIMIT     maximum detailed reports (default 16)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

func main() {
	prec := flag.Uint("prec", 256, "bigfp shadow precision in bits (128/256/512)")
	oracleFlag := flag.String("oracle", "bigfp", "shadow oracle: bigfp|dd|residue")
	noTracing := flag.Bool("no-tracing", false, "disable DAG metadata (detection only)")
	entry := flag.String("entry", "main", "entry function")
	baseline := flag.Bool("baseline", false, "run uninstrumented (no shadow execution)")
	outThreshold := flag.Int("out-threshold", 35, "output error bits threshold")
	tracePath := flag.String("trace", "", "write a JSON-lines event trace to this file ('-' = stdout)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text metrics dump to this file ('-' = stdout)")
	dotPath := flag.String("dot", "", "write the error DAGs as Graphviz DOT to this file ('-' = stdout)")
	backendFlag := flag.String("backend", "", "execution backend: vm|treewalk (default vm; treewalk is the reference interpreter)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pd [flags] program.pcl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	prog, err := positdebug.Compile(string(src))
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

	opts := []positdebug.Option{positdebug.WithBackend(bk)}
	var sink *obs.JSONLines
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = outFile(*tracePath)
		if err != nil {
			fail(err)
		}
		sink = obs.NewJSONLines(traceFile)
		opts = append(opts, positdebug.WithTrace(sink))
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		opts = append(opts, positdebug.WithMetrics(reg))
	}

	if *baseline {
		opts = append(opts, positdebug.WithBaseline())
	} else {
		cfg := shadow.ConfigFor(orc, *prec)
		cfg.Tracing = !*noTracing
		cfg.OutputThreshold = *outThreshold
		if v := os.Getenv("PD_ERROR_THRESHOLD"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				cfg.ErrBitsThreshold = n
			}
		}
		cfg.MaxReports = 16
		if v := os.Getenv("PD_REPORT_LIMIT"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				cfg.MaxReports = n
			}
		}
		opts = append(opts, positdebug.WithShadow(cfg))
	}

	res, err := prog.Exec(*entry, opts...)
	if err != nil {
		fail(err)
	}
	fmt.Print(res.Output)
	if res.Summary != nil {
		fmt.Println()
		fmt.Print(res.Summary)
		for _, r := range res.Summary.Reports {
			fmt.Println()
			fmt.Println(r)
		}
	}

	if sink != nil {
		if err := sink.Err(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := closeFile(traceFile); err != nil {
			fail(err)
		}
	}
	if *dotPath != "" {
		if res.Summary == nil {
			fail(fmt.Errorf("-dot requires a shadow run (drop -baseline)"))
		}
		f, err := outFile(*dotPath)
		if err != nil {
			fail(err)
		}
		if err := res.Summary.WriteDOT(f); err != nil {
			fail(fmt.Errorf("dot: %w", err))
		}
		if err := closeFile(f); err != nil {
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
}

// outFile opens path for writing; "-" means stdout.
func outFile(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

func closeFile(f *os.File) error {
	if f == os.Stdout {
		return nil
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pd:", err)
	os.Exit(1)
}
