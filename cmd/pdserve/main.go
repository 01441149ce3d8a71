// Command pdserve runs PositDebug as a hardened HTTP service: POST a PCL
// program to /run and get back its result, step count and shadow-oracle
// detections.
//
// Usage:
//
//	pdserve -addr :8080 -concurrency 8 -queue 32
//
// The service is built for sustained operation: admission is bounded (load
// beyond the queue is shed with 429 + Retry-After), every run is governed
// by the request context (a disconnected client stops the interpreter
// within a few thousand instructions), panics are isolated per request,
// and -soft-mem-limit enables a watchdog that steps the shadow oracle down
// bigfp → dd → dd sampled at stride 16 (a dd or residue base steps
// straight to its sampled rung) under memory pressure instead of falling
// over. SIGTERM/Ctrl-C drain gracefully: in-flight requests finish, new
// ones get 503, and the process exits 0.
//
// Observability: every request gets an id (X-Request-Id, stamped on every
// event it emits). -flight N arms a per-request flight recorder — the last
// N events (lifecycle, detections, causal spans) are dumped as JSONL to
// -flight-log whenever a request answers 5xx or reports detections.
// -profile aggregates per-instruction numerical-error profiles across
// requests (keyed by source hash) at /debug/profile; -pprof mounts Go's
// runtime profiling endpoints under /debug/pprof/.
//
// Fleet membership: -coordinator http://coord:8731 makes the worker
// self-register with a pdcoord registrar and heartbeat every -heartbeat
// interval, advertising its capacity/oracle/backend tier. The worker may
// start before the coordinator — failed beats retry forever. On SIGTERM
// the drain announces departure to the coordinator first, so in-flight
// shard leases migrate immediately instead of waiting out their expiry.
// -advertise overrides the URL the coordinator dials back (default:
// derived from the listen address).
//
// Endpoints: POST /run, /campaign/shard, /profile/shard; GET /healthz,
// /readyz, /metrics (Prometheus text); GET /debug/trace/{id} while the
// flight recorder is on (the default); and optionally GET /debug/profile,
// /debug/pprof/*.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/server"
	"positdebug/internal/shadow/oracle"
)

// advertiseURL derives the base URL workers advertise to the coordinator
// from the bound listener address: an unspecified host (":8080",
// "0.0.0.0") is replaced with 127.0.0.1 — good for single-host fleets,
// which is what address-less listening means; multi-host fleets pass
// -advertise explicitly.
func advertiseURL(addr net.Addr) string {
	host, port := "127.0.0.1", ""
	if tcp, ok := addr.(*net.TCPAddr); ok {
		if ip := tcp.IP; ip != nil && !ip.IsUnspecified() {
			host = ip.String()
			if ip.To4() == nil {
				host = "[" + host + "]"
			}
		}
		port = fmt.Sprintf("%d", tcp.Port)
	} else if h, p, err := net.SplitHostPort(addr.String()); err == nil {
		if h != "" && h != "::" && h != "0.0.0.0" {
			host = h
		}
		port = p
	}
	return "http://" + host + ":" + port
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "max simultaneously executing runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued runs before load shedding (0 = 4x concurrency)")
	timeout := flag.Duration("run-timeout", 2*time.Second, "default per-run wall-clock budget")
	maxTimeout := flag.Duration("max-run-timeout", 30*time.Second, "cap on the per-request timeout_ms field")
	maxSteps := flag.Int64("max-steps", 50_000_000, "per-run instruction budget")
	prec := flag.Uint("prec", 256, "bigfp shadow precision in bits at zero memory pressure")
	oracleFlag := flag.String("oracle", "bigfp", "shadow oracle at zero memory pressure: bigfp|dd|residue")
	shadowBudget := flag.Int64("shadow-budget", 0, "per-run shadow-memory budget in bytes (0 = unlimited)")
	softMem := flag.Uint64("soft-mem-limit", 0, "heap bytes at which the watchdog degrades the shadow-oracle tier (0 = off)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	flight := flag.Int("flight", 256, "per-request flight-recorder capacity in events (0 = off)")
	flightLog := flag.String("flight-log", "", "file receiving flight-recorder JSONL dumps (default stderr)")
	profileReqs := flag.Bool("profile", false, "aggregate per-instruction numerical-error profiles at /debug/profile")
	profileSample := flag.Int("profile-sample", 1, "shadow sampling stride for request profiling (1 = full shadow)")
	pprofFlag := flag.Bool("pprof", false, "mount Go runtime profiling at /debug/pprof/")
	backendFlag := flag.String("backend", "", "execution backend for every served run: vm|treewalk (default vm; treewalk is the reference interpreter)")
	coordinator := flag.String("coordinator", "", "fabric coordinator registrar base URL to self-register with (pdcoord -listen)")
	advertise := flag.String("advertise", "", "base URL the coordinator should dial this worker at (default: derived from -addr)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "registration heartbeat interval when -coordinator is set")
	flag.Parse()

	var flightW io.Writer
	if *flightLog != "" {
		f, err := os.OpenFile(*flightLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdserve:", err)
			os.Exit(1)
		}
		defer f.Close()
		flightW = f
	}

	bk, err := backend.Parse(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
		os.Exit(2)
	}
	orc, err := oracle.Parse(*oracleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxConcurrent:   *concurrency,
		MaxQueue:        *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxSteps:        *maxSteps,
		Precision:       *prec,
		Oracle:          orc,
		MaxShadowBytes:  *shadowBudget,
		SoftMemLimit:    *softMem,
		DrainTimeout:    *drain,
		FlightRecorder:  *flight,
		FlightLog:       flightW,
		ProfileRequests: *profileReqs,
		ProfileSample:   *profileSample,
		EnablePprof:     *pprofFlag,
		Backend:         bk,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pdserve: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *coordinator != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(l.Addr())
		}
		go srv.RegisterLoop(ctx, server.RegisterConfig{
			Coordinator: *coordinator,
			Advertise:   adv,
			Interval:    *heartbeat,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pdserve: "+format+"\n", args...)
			},
		})
	}
	if err := srv.Serve(ctx, l); err != nil {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pdserve: drained; bye")
}
