// Command pdcoord is the coordinator of the distributed campaign/profile
// fabric: it shards a fault-injection campaign (or a profiling sweep)
// across a fleet of pdserve workers and merges the streamed-back results
// into a report byte-identical to a single-process run of the same
// configuration.
//
// Usage (static fleet):
//
//	pdserve -addr :8701 &
//	pdserve -addr :8702 &
//	pdcoord -workers http://localhost:8701,http://localhost:8702 \
//	        -workload polybench/gemm -seed 42 -runs 200 -arch both -json
//
// Usage (elastic fleet — workers find the coordinator):
//
//	pdserve -addr :8701 -coordinator http://localhost:8731 &
//	pdserve -addr :8702 -coordinator http://localhost:8731 &
//	pdcoord -listen 127.0.0.1:8731 -min-workers 2 \
//	        -workload polybench/gemm -seed 42 -runs 200 -arch both -json
//
// -listen serves the registrar (POST /fabric/register, /fabric/deregister,
// GET /fabric/members): workers self-register, heartbeat, and may join or
// leave mid-campaign — a joiner starts taking shards immediately, a drain
// announcement migrates in-flight leases without waiting for expiry, and
// silent workers are expired by heartbeat TTL and active /readyz probing.
// Each shard goes to the first idle, healthy worker in join order: every
// run is a pure function of its seed, so any worker can run any shard.
// -workers and -listen compose; at least one is required.
//
// Worker failures are the expected case, not the exceptional one: shards
// are retried with capped exponential backoff (429 Retry-After windows
// are honored as flow control), repeatedly failing workers are ejected
// and re-admitted on probation, hung workers lose their shard lease and
// the shard is reassigned, and straggler shards are hedged onto idle
// workers. With -journal, merged results are write-ahead-logged in the
// same format pdfault uses: a killed coordinator rerun with the same
// flags re-dispatches only the missing runs and produces the same bytes.
//
// -profile switches to profile mode: the same fleet executes slices of a
// shadow-execution profiling sweep and pdcoord merges them into one
// canonical profile JSON (see pdprof for the single-process equivalent).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
)

// parseWorkers splits a -workers list into validated base URLs: entries
// are trimmed, empties (trailing commas, doubled commas) dropped, and
// anything that isn't an absolute http(s) URL rejected with an error
// naming the offending entry.
func parseWorkers(list string) ([]string, error) {
	var out []string
	for _, entry := range strings.Split(list, ",") {
		if strings.TrimSpace(entry) == "" {
			continue
		}
		u, err := fabric.NormalizeWorkerURL(entry)
		if err != nil {
			return nil, fmt.Errorf("-workers: %v", err)
		}
		out = append(out, u)
	}
	return out, nil
}

func main() {
	workers := flag.String("workers", "", "comma-separated pdserve base URLs (optional when -listen is set)")
	listen := flag.String("listen", "", "serve the worker-registration endpoint on this address; workers join with pdserve -coordinator")
	minWorkers := flag.Int("min-workers", 1, "with -listen: wait for this many registered workers before dispatching")
	heartbeatTTL := flag.Duration("heartbeat-ttl", 15*time.Second, "with -listen: drop a registered worker whose heartbeats stop for this long")
	probeInterval := flag.Duration("probe-interval", 3*time.Second, "with -listen: /readyz probe cadence for every member (negative = off)")
	jitterSeed := flag.Int64("jitter-seed", 0, "seed for backoff/hedge jitter (0 = time-derived); fixed seeds replay retry schedules")
	workload := flag.String("workload", "polybench/gemm", "workload: polybench/<kernel>, spec/<kernel>, suite/<program>")
	n := flag.Int("n", 0, "problem size (0 = campaign default)")
	runs := flag.Int("runs", 100, "fault-injected runs per architecture (profile mode: total runs)")
	seed := flag.Int64("seed", 1, "campaign seed (determines every fault)")
	model := flag.String("model", "bitflip", "fault kind: bitflip|multiflip|nar|saturate")
	ops := flag.String("ops", "all", "injectable op classes: comma list of arith,const,cast,load,store,call or all")
	bit := flag.Int("bit", -1, "pin flipped bit position (-1 = random per injection)")
	flips := flag.Int("flips", 2, "bits flipped per multiflip injection")
	rate := flag.Float64("rate", 0, "per-event injection probability (0 = single fault per run)")
	occ := flag.Int64("occ", 0, "pin injection to the k-th eligible event (0 = sweep sites)")
	inst := flag.Int("inst", -1, "restrict injection to one static instruction id (-1 = any)")
	arch := flag.String("arch", "posit", "architecture: posit|float|both")
	runTimeout := flag.Duration("run-timeout", 10*time.Second, "wall-clock limit per run (executed worker-side)")
	timeout := flag.Duration("timeout", 0, "whole-job deadline (0 = none)")
	journalPath := flag.String("journal", "", "crash-safe WAL journal: merged runs are fsync'd here and a rerun dispatches only the rest")
	maxSteps := flag.Int64("max-steps", 200_000_000, "step budget per run")
	prec := flag.Uint("prec", 256, "shadow precision in bits")
	budget := flag.Int64("budget", 0, "shadow-memory budget in bytes (0 = unlimited)")
	threshold := flag.Int("threshold", 10, "masked threshold in output error bits (0 = default 10, -1 = exact match)")
	schedules := flag.Bool("schedules", false, "embed per-run fault schedules in the JSON report")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	tracePath := flag.String("trace", "", "collect a fleet-wide distributed trace and write it here as one Perfetto-loadable Chrome trace-event file")
	metricsPath := flag.String("metrics", "", "write a Prometheus text metrics dump to this file ('-' = stderr)")
	verbose := flag.Bool("v", false, "log scheduling events (retries, ejections, hedges, leases) to stderr")

	shardSize := flag.Int("shard-size", 16, "runs per dispatched shard")
	maxAttempts := flag.Int("max-attempts", 5, "failed attempts per shard before the job errors out")
	lease := flag.Duration("lease", 2*time.Minute, "per-attempt lease; an expired lease reassigns the shard")
	hedge := flag.Duration("hedge", 30*time.Second, "duplicate a shard still running after this long onto an idle worker (negative = off)")
	eject := flag.Int("eject-after", 3, "consecutive failures that eject a worker")
	probation := flag.Duration("probation", 10*time.Second, "ejection window before probational re-admission")

	profileMode := flag.Bool("profile", false, "profile mode: distribute a shadow-profiling sweep instead of a campaign")
	kernel := flag.String("kernel", "gemm", "profile mode: kernel name")
	posit := flag.Bool("posit", true, "profile mode: refactor the kernel to posits before profiling")
	sample := flag.Int("sample", 1, "profile mode: shadow sampling stride")
	flag.Parse()

	workerURLs, err := parseWorkers(*workers)
	if err != nil {
		fail(err)
	}
	if len(workerURLs) == 0 && *listen == "" {
		fail(errors.New("no fleet: pass -workers (static URLs), -listen (worker self-registration), or both"))
	}

	fcfg := fabric.Config{
		Workers:      workerURLs,
		ShardSize:    *shardSize,
		MaxAttempts:  *maxAttempts,
		LeaseTimeout: *lease,
		HedgeAfter:   *hedge,
		EjectAfter:   *eject,
		Probation:    *probation,
		JitterSeed:   *jitterSeed,
	}
	if *verbose {
		fcfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pdcoord: "+format+"\n", args...)
		}
	}
	// The registry also backs /metrics on the -listen endpoint, so an
	// elastic-fleet coordinator always has one even without -metrics.
	var reg *obs.Registry
	if *metricsPath != "" || *listen != "" {
		reg = obs.NewRegistry()
		fcfg.Metrics = reg
	}

	var trace *fabric.FleetTrace
	if *tracePath != "" {
		if *profileMode {
			trace = fabric.NewFleetTrace("profile", *kernel, fmt.Sprint(*runs))
		} else {
			trace = fabric.NewFleetTrace(*workload, fmt.Sprint(*runs), fmt.Sprint(*seed))
		}
		fcfg.Trace = trace
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -listen: serve the registrar next to the campaign so the fleet can
	// assemble (and keep changing) while shards are in flight.
	if *listen != "" {
		members := fabric.NewMembership()
		fcfg.Members = members
		registrar, err := fabric.NewRegistrar(fabric.RegistrarConfig{
			Members:       members,
			HeartbeatTTL:  *heartbeatTTL,
			ProbeInterval: *probeInterval,
			Metrics:       reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pdcoord: "+format+"\n", args...)
			},
		})
		if err != nil {
			fail(err)
		}
		// The same endpoint serves the live-observability plane: fleet
		// status, the SSE event stream, and Prometheus metrics.
		prog := fabric.NewProgress()
		bus := fabric.NewBus()
		fcfg.Progress = prog
		fcfg.Events = bus
		fh := fabric.NewFleetHandler(members, prog, bus, reg)
		mux := http.NewServeMux()
		mux.Handle("/fabric/", registrar.Handler())
		mux.Handle("/fleet/", fh.Handler())
		mux.Handle("/metrics", fh.Handler())

		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fail(err)
		}
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		go registrar.Run(ctx)
		defer hs.Close()
		fmt.Fprintf(os.Stderr, "pdcoord: registration endpoint on %s\n", ln.Addr())

		// Count static -workers toward the floor: they are members too.
		if err := waitForWorkers(ctx, members, len(workerURLs), *minWorkers); err != nil {
			fail(err)
		}
	}

	if *profileMode {
		co, err := fabric.New(fcfg)
		if err != nil {
			fail(err)
		}
		prof, err := co.RunProfile(ctx, fabric.ProfileSweep{
			Kernel: *kernel, N: *n, Posit: *posit, Runs: *runs,
			Sample: *sample, Precision: *prec,
		})
		if err != nil {
			fail(err)
		}
		if err := prof.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		writeMetrics(reg, *metricsPath)
		writeTrace(trace, *tracePath)
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
	ccfg := faultinject.CampaignConfig{
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
		MaxShadowBytes: *budget,
		MaskedBits:     *threshold,
		KeepSchedules:  *schedules,
	}

	resumed := 0
	if *journalPath != "" {
		journal, err := faultinject.OpenJournal(*journalPath, ccfg)
		if err != nil {
			fail(err)
		}
		defer journal.Close()
		if resumed = journal.Resumed(); resumed > 0 {
			fmt.Fprintf(os.Stderr, "pdcoord: resuming past %d journaled runs\n", resumed)
		}
		fcfg.Journal = journal
	}

	co, err := fabric.New(fcfg)
	if err != nil {
		fail(err)
	}
	rep, err := co.RunCampaign(ctx, ccfg)
	if err != nil {
		if ctx.Err() != nil && *journalPath != "" {
			fmt.Fprintln(os.Stderr, "pdcoord: interrupted; rerun the same command to resume from the journal")
		}
		fail(err)
	}
	if *journalPath != "" {
		total := rep.Runs * len(rep.Arches)
		fmt.Fprintf(os.Stderr, "pdcoord: %d of %d runs replayed from journal, %d dispatched to workers\n",
			resumed, total, total-resumed)
	}
	writeMetrics(reg, *metricsPath)
	writeTrace(trace, *tracePath)

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

// waitForWorkers blocks until enough workers have registered to satisfy
// -min-workers. Static -workers entries count toward the floor (they join
// the roster when the coordinator is built, after this wait), so only the
// remainder must arrive via registration.
func waitForWorkers(ctx context.Context, members *fabric.Membership, static, min int) error {
	need := min - static
	if need <= 0 {
		return nil
	}
	notify := members.Notify()
	if members.Len() < need {
		fmt.Fprintf(os.Stderr, "pdcoord: waiting for %d worker(s) to register...\n", need-members.Len())
	}
	for members.Len() < need {
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted with %d of %d workers registered", members.Len()+static, min)
		case <-notify:
		}
	}
	fmt.Fprintf(os.Stderr, "pdcoord: fleet assembled: %d worker(s)\n", members.Len()+static)
	return nil
}

// writeTrace merges the coordinator spans with every fetched worker
// span batch into one Chrome trace-event file Perfetto can load whole.
func writeTrace(trace *fabric.FleetTrace, path string) {
	if trace == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := trace.WriteChrome(f, "pdcoord"); err != nil {
		fail(fmt.Errorf("trace: %w", err))
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "pdcoord: fleet trace written to %s\n", path)
}

func writeMetrics(reg *obs.Registry, path string) {
	if reg == nil || path == "" {
		return
	}
	f := os.Stderr
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fail(err)
		}
	}
	if err := reg.WriteProm(f); err != nil {
		fail(fmt.Errorf("metrics: %w", err))
	}
	if f != os.Stderr {
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pdcoord:", err)
	os.Exit(1)
}
