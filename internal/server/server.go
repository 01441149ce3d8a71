// Package server is PositDebug as a hardened HTTP service: it compiles,
// shadow-executes and debugs posit/FP programs per request, built for the
// long-running production posture the paper's constant-size metadata makes
// viable — bounded admission, cooperative cancellation end-to-end, graceful
// degradation under memory pressure, and a clean drain on shutdown.
//
// Failure taxonomy → HTTP status:
//
//	compile/parse/check error, bad request shape  → 400
//	program trap (OOB access, stack overflow)     → 422
//	*interp.Cancelled (client gone, drain)        → 499
//	*interp.InternalFault (recovered panic)       → 500
//	*interp.ResourceExhausted (budgets)           → 503
//	admission queue full (load shed)              → 429 + Retry-After
//	draining                                      → 503
//
// Every run is bounded (wall clock + steps), governed by the request
// context (a disconnected client stops the interpreter within one poll
// interval), and isolated (a panic anywhere in the run is a structured 500
// for that request, never a crashed process). A memory-pressure watchdog
// steps the fleet down a shadow-oracle ladder (bigfp → double-double →
// double-double sampled) and back, reported via Degraded/Oracle in
// responses and the pd_serve_precision_bits / pd_serve_shadow_tier gauges.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/interp"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// StatusClientClosedRequest is nginx's 499: the client went away (or the
// server began draining) and the run was cancelled before completing.
const StatusClientClosedRequest = 499

// Config tunes the service. The zero value gets production-safe defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing runs
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds runs waiting for an execution slot; beyond it the
	// request is shed with 429 + Retry-After (default 4×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout is the per-run wall-clock budget when the request
	// doesn't set one (default 2s); MaxTimeout caps what a request may ask
	// for (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSteps is the per-run instruction budget (default 50M); requests
	// may lower it, never raise it.
	MaxSteps int64
	// MaxSourceBytes caps the request body (default 256 KiB).
	MaxSourceBytes int64
	// Precision is the bigfp shadow precision served at zero memory
	// pressure (default 256). Fixed-precision oracles ignore it.
	Precision uint
	// Oracle is the shadow-arithmetic backend served at zero memory
	// pressure (default oracle.BigFP). Under pressure the watchdog walks
	// the degradation ladder: a bigfp fleet steps to the double-double
	// oracle, then to double-double with sampled shadow execution; a
	// fleet already on a cheap fixed-precision oracle only has sampling
	// left to give.
	Oracle oracle.Kind
	// MaxShadowBytes is the per-run shadow-memory budget (0 = unlimited);
	// over-budget runs degrade per-run on top of the fleet-wide step.
	MaxShadowBytes int64
	// SoftMemLimit is the heap size (bytes) at which the watchdog steps
	// the fleet-wide precision down one notch; recovery happens below half
	// the limit. 0 disables the watchdog.
	SoftMemLimit uint64
	// WatchdogInterval is the memory poll cadence (default 1s).
	WatchdogInterval time.Duration
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after shutdown begins (default 30s).
	DrainTimeout time.Duration
	// CacheSize is the compiled-program LRU capacity (default 64). On a
	// cache hit, compile, instrumentation and bytecode are already done,
	// so the request pays only for execution.
	CacheSize int
	// Metrics receives service and shadow-oracle metrics (default: a
	// fresh registry, exposed at /metrics).
	Metrics *obs.Registry
	// FlightRecorder sizes the per-request flight ring: every request
	// records its last N observability events (run lifecycle, detections,
	// causal spans), each stamped with the request id, and the ring is
	// dumped as JSONL to FlightLog when the request answers 5xx or
	// reports detections. 0 disables the recorder.
	FlightRecorder int
	// FlightLog receives flight-recorder dumps (default os.Stderr).
	// Writes are serialized; each line is one obs.Event.
	FlightLog io.Writer
	// TraceStore bounds how many completed requests' span batches are
	// retained for GET /debug/trace/{requestID} — the endpoint a fleet
	// coordinator assembles distributed traces from. Defaults to 256 when
	// the flight recorder is on; negative disables the endpoint.
	TraceStore int
	// ProfileRequests collects a per-request numerical-error profile and
	// merges it into a live aggregate keyed by source hash, served at
	// /debug/profile (JSON; ?top=N for the text report).
	ProfileRequests bool
	// ProfileSample is the shadow sampling stride for request profiling
	// (default 1 = full shadow).
	ProfileSample int
	// EnablePprof mounts Go's runtime profiling endpoints
	// (net/http/pprof) under /debug/pprof/.
	EnablePprof bool
	// Backend selects the execution engine for every served run
	// (default backend.Default, the VM). The tree-walking reference
	// interpreter produces byte-identical responses at higher ns/op;
	// select it service-wide with pdserve -backend=treewalk.
	Backend backend.Kind
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 256 << 10
	}
	if c.Precision == 0 {
		c.Precision = 256
	}
	if k, err := oracle.Parse(string(c.Oracle)); err == nil {
		c.Oracle = k
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.FlightRecorder > 0 && c.FlightLog == nil {
		c.FlightLog = os.Stderr
	}
	if c.FlightRecorder > 0 && c.TraceStore == 0 {
		c.TraceStore = 256
	}
	if c.ProfileSample <= 0 {
		c.ProfileSample = 1
	}
	return c
}

// shadowTier is one rung of the fleet-wide degradation ladder: which
// oracle the fleet serves, the bigfp precision (meaningful on bigfp rungs
// only) and the shadow sampling stride (1 = full shadow execution).
type shadowTier struct {
	Oracle    oracle.Kind
	Precision uint
	Sample    int
}

// degradeSampleStride is the sampling stride of the ladder's final rung:
// shadow every 16th dynamic instance per static instruction, the same
// stride the profiler benchmarks as ~an order of magnitude of overhead
// reduction while keeping every instruction in the profile.
const degradeSampleStride = 16

// degradationLadder builds the fleet's tiers for a base configuration.
// The watchdog degrades across oracles — bigfp → double-double →
// double-double sampled — instead of shaving bigfp mantissa bits: the
// double-double oracle frees the arbitrary-precision mantissas entirely
// (16 fixed bytes per entry) while keeping 106-bit shadow arithmetic,
// a far better memory/accuracy trade than bigfp-64. A base that already
// runs a cheap fixed-precision oracle only has sampling left to give.
func degradationLadder(kind oracle.Kind, prec uint) []shadowTier {
	if kind == oracle.BigFP {
		return []shadowTier{
			{Oracle: oracle.BigFP, Precision: prec, Sample: 1},
			{Oracle: oracle.DD, Precision: prec, Sample: 1},
			{Oracle: oracle.DD, Precision: prec, Sample: degradeSampleStride},
		}
	}
	return []shadowTier{
		{Oracle: kind, Precision: prec, Sample: 1},
		{Oracle: kind, Precision: prec, Sample: degradeSampleStride},
	}
}

// Server is one service instance. Build with New, expose via Handler or
// run with Serve.
type Server struct {
	cfg Config
	reg *obs.Registry

	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	// ladder is the degradation ladder; tierShift indexes the rung
	// currently served fleet-wide (0 = the configured base tier).
	ladder    []shadowTier
	tierShift atomic.Int32

	drainOnce sync.Once
	drainCh   chan struct{}

	// memUsage reports current heap use for the watchdog; replaced in
	// tests to simulate pressure without allocating gigabytes.
	memUsage func() uint64

	// reqSeq numbers requests; the id rides every event of the request's
	// flight ring and the X-Request-Id response header.
	reqSeq   atomic.Uint64
	flightMu sync.Mutex // serializes FlightLog dumps

	profMu   sync.Mutex
	profiles map[string]*profile.Profile // live aggregates by source hash

	// traces retains completed flights for /debug/trace (nil = disabled).
	traces *traceStore

	cache *progCache
	mux   *http.ServeMux
}

// New builds a server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		drainCh: make(chan struct{}),
		cache:   newProgCache(cfg.CacheSize),
	}
	s.ladder = degradationLadder(cfg.Oracle, cfg.Precision)
	s.memUsage = heapInUse
	s.profiles = make(map[string]*profile.Profile)
	s.reg.Gauge("pd_serve_precision_bits").Set(int64(s.EffectivePrecision()))
	s.reg.Gauge("pd_serve_shadow_tier").Set(0)
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/campaign/shard", s.handleCampaignShard)
	mux.HandleFunc("/profile/shard", s.handleProfileShard)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.FlightRecorder > 0 && cfg.TraceStore > 0 {
		s.traces = newTraceStore(cfg.TraceStore)
		mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	}
	if cfg.ProfileRequests {
		mux.HandleFunc("/debug/profile", s.handleDebugProfile)
	}
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler: /run, /campaign/shard,
// /profile/shard, /healthz, /readyz and /metrics, plus /debug/trace/{id},
// /debug/profile and /debug/pprof/ when configured.
func (s *Server) Handler() http.Handler { return s.mux }

// InFlight reports currently executing runs (tests and the drain loop).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// BeginDrain flips the server into drain mode: /readyz and new /run
// requests answer 503 while in-flight runs finish. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Serve accepts connections on l until ctx is cancelled (the SIGTERM path
// in cmd/pdserve), then drains gracefully: new requests are rejected with
// 503, in-flight requests finish (bounded by DrainTimeout), and Serve
// returns nil for a clean exit. The memory watchdog runs for the lifetime
// of the listener when SoftMemLimit is set.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if s.cfg.SoftMemLimit > 0 {
		go s.watchdog(stopWatch)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	s.BeginDrain()
	// Drain window: the listener stays open so late arrivals get an
	// explicit 503 (not a connection refused) while in-flight runs finish.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for (s.inflight.Load() > 0 || s.queued.Load() > 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := hs.Shutdown(sctx)
	if err != nil {
		// Stragglers past the drain budget: close connections outright;
		// their request contexts cancel and the interpreter stops with
		// *Cancelled within one poll interval.
		_ = hs.Close()
	}
	<-errc // always http.ErrServerClosed by now
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// EffectiveTier is the degradation-ladder rung the fleet currently serves.
func (s *Server) EffectiveTier() shadowTier {
	shift := int(s.tierShift.Load())
	if shift >= len(s.ladder) {
		shift = len(s.ladder) - 1
	}
	return s.ladder[shift]
}

// EffectivePrecision is the nominal shadow precision of the tier the fleet
// currently serves: the configured bigfp precision on the base rung, the
// oracle's fixed precision (106-bit double-double, 53-bit residue) on
// degraded rungs.
func (s *Server) EffectivePrecision() uint {
	t := s.EffectiveTier()
	return oracle.NominalPrecision(t.Oracle, t.Precision)
}

// Stats snapshots the worker's health telemetry for a heartbeat: queue
// pressure, the shadow tier currently served, compile-cache efficacy and
// cumulative detection/shard counts. Cheap — a few atomic loads and one
// registry scan — so calling it every beat costs nothing measurable.
func (s *Server) Stats() obs.WorkerStats {
	tier := s.EffectiveTier()
	name := string(tier.Oracle)
	if tier.Oracle == oracle.BigFP {
		name = fmt.Sprintf("bigfp-%d", tier.Precision)
	}
	if tier.Sample > 1 {
		name = fmt.Sprintf("%s/sample-%d", name, tier.Sample)
	}
	return obs.WorkerStats{
		QueueDepth:  s.queued.Load(),
		InFlight:    s.inflight.Load(),
		ShadowTier:  name,
		Degraded:    s.tierShift.Load() > 0,
		CacheHits:   s.reg.Counter("pd_serve_cache_hits_total").Value(),
		CacheMisses: s.reg.Counter("pd_serve_cache_misses_total").Value(),
		Detections:  s.reg.SumCounters("pd_detections_total"),
		Shards:      s.reg.SumCounters("pd_serve_shards_total"),
	}
}

// RunRequest is the /run request body.
type RunRequest struct {
	// Source is the PCL program (posit or FP types).
	Source string `json:"source"`
	// Fn is the entry function (default "main").
	Fn string `json:"fn,omitempty"`
	// Args are entry-function argument bit patterns, as strings so 64-bit
	// values survive JSON ("0x..." hex or decimal).
	Args []string `json:"args,omitempty"`
	// Baseline runs uninstrumented — no shadow execution, no detections.
	Baseline bool `json:"baseline,omitempty"`
	// TimeoutMS lowers the per-run wall-clock budget (capped by the
	// server's MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps lowers the per-run instruction budget (never raises it).
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// RunResponse is the /run success body.
type RunResponse struct {
	// Value is the entry function's result bit pattern, 0x-prefixed hex.
	Value string `json:"value"`
	// Rendered is the result decoded per the entry function's return type.
	Rendered string `json:"rendered"`
	// Output is everything the program printed.
	Output string `json:"output,omitempty"`
	// Steps is the instruction count.
	Steps int64 `json:"steps"`
	// Detections counts shadow-oracle detections by kind (absent for
	// baseline runs).
	Detections map[string]int `json:"detections,omitempty"`
	// Precision is the nominal shadow precision the run completed at
	// (the bigfp mantissa precision, or the fixed precision of a cheap
	// oracle); Oracle names the shadow backend that served it. Degraded
	// marks runs served below the configured tier — fleet-wide
	// memory-pressure degradation or a per-run shadow-budget retry.
	Precision uint   `json:"precision,omitempty"`
	Oracle    string `json:"oracle,omitempty"`
	Degraded  bool   `json:"degraded"`
	// Cached reports a compile-cache hit (the warm path).
	Cached bool `json:"cached"`
	// Req is the request id, also sent as X-Request-Id and stamped on
	// every flight-recorder event of this request.
	Req string `json:"req,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind is the failure taxonomy bucket: bad-request, compile, trap,
	// cancelled, internal-fault, resource-exhausted, shed, draining.
	Kind string `json:"kind"`
	// Req is the request id (when the request got far enough to be
	// assigned one).
	Req string `json:"req,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, kind, msg string) {
	s.reg.Counter(`pd_serve_requests_total{code="` + strconv.Itoa(code) + `"}`).Inc()
	writeJSON(w, code, ErrorResponse{Error: msg, Kind: kind})
}

// statusFor maps a run error onto the failure taxonomy.
func statusFor(err error) (int, string) {
	var c *interp.Cancelled
	if errors.As(err, &c) {
		return StatusClientClosedRequest, "cancelled"
	}
	var re *interp.ResourceExhausted
	if errors.As(err, &re) {
		return http.StatusServiceUnavailable, "resource-exhausted"
	}
	var f *interp.InternalFault
	if errors.As(err, &f) {
		return http.StatusInternalServerError, "internal-fault"
	}
	var tr *interp.Trap
	if errors.As(err, &tr) {
		return http.StatusUnprocessableEntity, "trap"
	}
	return http.StatusInternalServerError, "internal-fault"
}

// admit acquires an execution slot, queueing up to MaxQueue requests.
// Returns (release, 0) on success, or (nil, status) when the request must
// be rejected: 429 when the queue is full (load shed), 503 when draining,
// 499 when the client went away while queued.
func (s *Server) admit(ctx context.Context) (func(), int) {
	if s.Draining() {
		return nil, http.StatusServiceUnavailable
	}
	release := func() {
		<-s.sem
		s.inflight.Add(-1)
		s.reg.Gauge("pd_serve_inflight").Set(s.inflight.Load())
	}
	acquire := func() func() {
		s.inflight.Add(1)
		s.reg.Gauge("pd_serve_inflight").Set(s.inflight.Load())
		return release
	}
	select {
	case s.sem <- struct{}{}:
		return acquire(), 0
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.reg.Counter("pd_serve_shed_total").Inc()
		return nil, http.StatusTooManyRequests
	}
	s.reg.Gauge("pd_serve_queue_depth").Set(s.queued.Load())
	defer func() {
		s.queued.Add(-1)
		s.reg.Gauge("pd_serve_queue_depth").Set(s.queued.Load())
	}()
	select {
	case s.sem <- struct{}{}:
		return acquire(), 0
	case <-ctx.Done():
		return nil, StatusClientClosedRequest
	case <-s.drainCh:
		return nil, http.StatusServiceUnavailable
	}
}

// retryAfterSecs derives the Retry-After hint from the live admission
// backlog: the queue ahead of a shed arrival drains at roughly
// MaxConcurrent runs per DefaultTimeout worth of wall clock, so advertise
// that estimate (clamped to [1, 30] seconds) instead of a blind constant.
// Coordinators honor it, which turns load shedding into real backpressure.
func (s *Server) retryAfterSecs() int {
	waves := (s.queued.Load() + int64(s.cfg.MaxConcurrent) - 1) / int64(s.cfg.MaxConcurrent)
	secs := int(float64(waves) * s.cfg.DefaultTimeout.Seconds())
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// rejectAdmission answers the three admission failures with their taxonomy
// kinds; 429s carry the queue-depth-derived Retry-After hint.
func (s *Server) rejectAdmission(w http.ResponseWriter, code int) {
	switch code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		s.writeErr(w, code, "shed", "admission queue full; retry later")
	case http.StatusServiceUnavailable:
		s.writeErr(w, code, "draining", "server is draining")
	default:
		s.writeErr(w, code, "cancelled", "client closed request while queued")
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, "bad-request", "POST only")
		return
	}
	release, code := s.admit(r.Context())
	if code != 0 {
		s.rejectAdmission(w, code)
		return
	}
	defer release()
	// Per-request panic isolation: the interpreter already converts run
	// panics into *InternalFault; this belt catches bugs in the handler
	// path itself so one poisoned request never kills the process.
	defer func() {
		if rec := recover(); rec != nil {
			s.writeErr(w, http.StatusInternalServerError, "internal-fault",
				fmt.Sprintf("panic serving request: %v", rec))
		}
	}()

	fl := s.newFlight(r)
	w.Header().Set("X-Request-Id", fl.id)

	var req RunRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.failRun(w, fl, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error())
		return
	}
	resp, code, kind, msg := s.execRun(r.Context(), req, fl)
	if code != http.StatusOK {
		s.failRun(w, fl, code, kind, msg)
		return
	}
	fl.span.End()
	s.reg.Counter(`pd_serve_requests_total{code="200"}`).Inc()
	writeJSON(w, http.StatusOK, resp)
	if len(resp.Detections) > 0 {
		s.dumpFlight(fl)
	}
	s.closeFlight(fl)
}

// execRun is the /run pipeline: compile (through
// the cache), resolve the entry function and arguments, execute under the
// request context and budgets, and classify any failure onto the taxonomy.
// The caller owns admission, the flight lifecycle and the HTTP response;
// on success the returned response already carries the flight id.
func (s *Server) execRun(ctx context.Context, req RunRequest, fl *flight) (RunResponse, int, string, string) {
	fail := func(code int, kind, msg string) (RunResponse, int, string, string) {
		return RunResponse{}, code, kind, msg
	}
	if req.Source == "" {
		return fail(http.StatusBadRequest, "bad-request", "missing source")
	}

	csp := fl.tr.Start("compile")
	prog, cached, err := s.cache.get(req.Source)
	csp.End()
	if err != nil {
		return fail(http.StatusBadRequest, "compile", err.Error())
	}
	if cached {
		s.reg.Counter("pd_serve_cache_hits_total").Inc()
	} else {
		s.reg.Counter("pd_serve_cache_misses_total").Inc()
	}

	fnName := req.Fn
	if fnName == "" {
		fnName = "main"
	}
	fn := prog.Module.FuncByName(fnName)
	if fn == nil {
		return fail(http.StatusBadRequest, "bad-request", fmt.Sprintf("no function %q", fnName))
	}
	args := make([]uint64, 0, len(req.Args))
	for _, a := range req.Args {
		v, err := strconv.ParseUint(a, 0, 64)
		if err != nil {
			return fail(http.StatusBadRequest, "bad-request", "bad argument "+strconv.Quote(a)+": "+err.Error())
		}
		args = append(args, v)
	}
	if len(args) != len(fn.Params) {
		return fail(http.StatusBadRequest, "bad-request",
			fmt.Sprintf("%s takes %d args, got %d", fnName, len(fn.Params), len(args)))
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	maxSteps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < maxSteps {
		maxSteps = req.MaxSteps
	}
	lim := interp.Limits{Timeout: timeout, MaxSteps: maxSteps}

	opts := []positdebug.Option{
		positdebug.WithContext(ctx),
		positdebug.WithLimits(lim),
		positdebug.WithArgs(args...),
		positdebug.WithBackend(s.cfg.Backend),
	}
	if fl.sink != nil {
		opts = append(opts, positdebug.WithTrace(fl.sink), positdebug.WithSpans(fl.tr))
	}
	tier := s.EffectiveTier()
	fleetDegraded := tier != s.ladder[0]
	var scfg shadow.Config
	var col *profile.Collector
	if req.Baseline {
		opts = append(opts, positdebug.WithBaseline())
	} else {
		scfg = shadow.ConfigFor(tier.Oracle, tier.Precision)
		scfg.MaxShadowBytes = s.cfg.MaxShadowBytes
		scfg.Tracing = false
		scfg.MaxReports = 1
		scfg.Metrics = s.reg
		opts = append(opts, positdebug.WithShadow(scfg))
		// The tier's sampling stride and the profiler's stride compose by
		// taking the coarser of the two — one sampler serves both.
		stride := tier.Sample
		if s.cfg.ProfileRequests {
			col = profile.NewCollector()
			opts = append(opts, positdebug.WithProfile(col))
			if s.cfg.ProfileSample > stride {
				stride = s.cfg.ProfileSample
			}
		}
		if stride > 1 || col != nil {
			opts = append(opts, positdebug.WithSampling(stride))
		}
	}

	res, err := prog.Exec(fnName, opts...)
	if err != nil {
		code, kind := statusFor(err)
		return fail(code, kind, err.Error())
	}
	if col != nil {
		s.mergeProfile(prog, col)
	}

	resp := RunResponse{
		Value:    "0x" + strconv.FormatUint(res.Value, 16),
		Rendered: interp.FormatValue(fn.Ret, res.Value),
		Output:   res.Output,
		Steps:    res.Steps,
		Cached:   cached,
	}
	if !req.Baseline {
		resp.Precision = oracle.NominalPrecision(res.ShadowOracle, res.ShadowPrecision)
		resp.Oracle = string(res.ShadowOracle)
		resp.Degraded = res.Degraded || fleetDegraded
		if res.Summary != nil && len(res.Summary.Counts) > 0 {
			resp.Detections = make(map[string]int, len(res.Summary.Counts))
			for k, n := range res.Summary.Counts {
				resp.Detections[k.String()] = n
			}
		}
		if resp.Degraded {
			s.reg.Counter("pd_serve_degraded_responses_total").Inc()
		}
	}
	resp.Req = fl.id
	return resp, http.StatusOK, "", ""
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	tier := s.EffectiveTier()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":    "ok",
		"precision": s.EffectivePrecision(),
		"oracle":    string(tier.Oracle),
		"sample":    tier.Sample,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteProm(w)
}

// progCache is a small LRU of compiled programs keyed by source text, so a
// repeated request skips compilation. A cached *positdebug.Program is safe to
// Exec from any number of concurrent requests: it builds its instrumented
// module and bytecode once, on first use.
type progCache struct {
	mu   sync.Mutex
	cap  int
	tick int64
	m    map[string]*cacheEntry
}

type cacheEntry struct {
	prog *positdebug.Program
	last int64
}

func newProgCache(capacity int) *progCache {
	return &progCache{cap: capacity, m: make(map[string]*cacheEntry, capacity)}
}

func (c *progCache) get(src string) (*positdebug.Program, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[src]; ok {
		c.tick++
		e.last = c.tick
		c.mu.Unlock()
		return e.prog, true, nil
	}
	c.mu.Unlock()

	// Compile outside the lock: one slow compile must not serialize every
	// cache hit behind it. Concurrent misses on the same source compile
	// twice; the first to publish wins.
	prog, err := positdebug.Compile(src)
	if err != nil {
		return nil, false, err
	}
	// Name the program by source hash before publishing it: profile keys
	// and report positions render as src-<hash>:line:col, stable across
	// requests and server restarts.
	sum := sha256.Sum256([]byte(src))
	prog.SetSourceName("src-" + hex.EncodeToString(sum[:6]))

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[src]; ok {
		c.tick++
		e.last = c.tick
		return e.prog, true, nil
	}
	if len(c.m) >= c.cap {
		var oldest string
		var min int64 = 1<<63 - 1
		for k, e := range c.m {
			if e.last < min {
				min, oldest = e.last, k
			}
		}
		delete(c.m, oldest)
	}
	c.tick++
	c.m[src] = &cacheEntry{prog: prog, last: c.tick}
	return prog, false, nil
}
