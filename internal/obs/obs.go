// Package obs is the observability layer behind the option-based run API:
// a structured event stream with pluggable sinks, a metrics registry
// (counters and histograms exported via expvar and a Prometheus-style text
// dump), and machine-readable graph export (Graphviz DOT, JSON) for the
// error DAGs the shadow runtime produces.
//
// Determinism is a first-class constraint, matching internal/parallel's
// contract: events carry no wall-clock timestamps, and sequence numbers are
// assigned by the terminal sink, so a parallel campaign that stages events
// in one Log per run and merges them in run-index order produces a
// byte-identical trace to a sequential one. Scheduling-dependent events (worker lifecycle)
// are segregated behind explicit opt-ins so the canonical stream stays
// reproducible across GOMAXPROCS settings.
package obs

// Event kinds. Every event in a trace carries exactly one of these.
const (
	// EvRunStart opens one program execution (fields: Func, Precision,
	// and Seed/Arch when a campaign stamps them).
	EvRunStart = "run-start"
	// EvRunEnd closes one program execution (fields: Steps, Precision,
	// Outcome "ok"/"degraded"/"error").
	EvRunEnd = "run-end"
	// EvDetect is one shadow-oracle detection (fields: Detect, Inst, Func,
	// Pos, ErrBits, Program, Shadow). Saturation and NaR exceptions are
	// detections with the corresponding Detect kind.
	EvDetect = "detection"
	// EvDegrade marks a shadow-memory-budget retry at a lower precision
	// (fields: Precision = the new, reduced precision).
	EvDegrade = "degrade"
	// EvInject is one injected fault (fields: Inst, Op, Bit, Before,
	// After), emitted in schedule order interleaved with detections.
	EvInject = "inject"
	// EvRunOutcome is a campaign's classification of one run (fields: Run,
	// Outcome masked/sdc/detected/crashed/hung, ErrBits, Seed).
	EvRunOutcome = "run-outcome"
	// EvWorkerStart / EvWorkerStop bracket one worker's lifetime (field:
	// Worker). They depend on GOMAXPROCS, so campaigns only emit them on
	// explicit opt-in, outside the deterministic canonical stream.
	EvWorkerStart = "worker-start"
	EvWorkerStop  = "worker-stop"
	// EvCampaignStart / EvCampaignEnd bracket a fault-injection campaign
	// (fields: Name = workload, Seed).
	EvCampaignStart = "campaign-start"
	EvCampaignEnd   = "campaign-end"
	// EvArchStart opens one architecture's half of a campaign (fields:
	// Arch, Program = formatted golden value).
	EvArchStart = "arch-start"
	// EvSpanBegin / EvSpanEnd bracket one causal span (fields: Name = span
	// name, Span = deterministic span id, Parent = enclosing span id or 0).
	EvSpanBegin = "span-begin"
	EvSpanEnd   = "span-end"

	// Fleet-scheduler events, emitted coordinator-side into the fleet
	// trace and the /fleet/events SSE stream. They describe scheduling
	// decisions, so they live outside the deterministic canonical stream
	// (like worker lifecycle events).

	// EvShardDispatch records one shard attempt leaving the scheduler
	// (fields: Name = shard label, Addr = worker URL, Outcome =
	// "fresh"/"retry"/"hedge", Req = the stamped cross-process request id).
	EvShardDispatch = "shard-dispatch"
	// EvShardDone records one shard attempt completing successfully
	// (fields: Name, Addr, Req).
	EvShardDone = "shard-done"
	// EvShardRetry records a failed attempt being rescheduled (fields:
	// Name, Addr = the worker that failed, Outcome = failure reason).
	EvShardRetry = "shard-retry"
	// EvLeaseMigrate records a hung shard's lease moving off a worker
	// (fields: Name, Addr = the abandoned worker).
	EvLeaseMigrate = "lease-migrate"
	// EvMemberJoin / EvMemberLeave / EvMemberDead record fleet roster
	// transitions as the scheduler sees them (fields: Addr; Outcome =
	// reason for leave/dead).
	EvMemberJoin  = "member-join"
	EvMemberLeave = "member-leave"
	EvMemberDead  = "member-dead"
	// EvDetectionFound aggregates detections reported by a completed shard
	// (fields: Name, Addr, Count = detected runs in the shard).
	EvDetectionFound = "detection-found"
)

// Event is one observability record. The zero value is not valid; use
// NewEvent so the "absent" sentinels (Run = −1, Inst = −1) are in place.
// Fields are a fixed superset across kinds — see the Ev* constants for
// which fields each kind populates — so one JSON-lines schema covers the
// whole stream.
type Event struct {
	// Seq is assigned by the terminal sink, 1-based and strictly
	// increasing within one trace.
	Seq uint64 `json:"seq"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Run is the campaign run index (0-based); −1 outside campaigns.
	Run int `json:"run"`
	// Inst is the static instruction id; −1 when not tied to one.
	Inst int32 `json:"inst"`

	Op        string `json:"op,omitempty"`
	Func      string `json:"func,omitempty"`
	Pos       string `json:"pos,omitempty"`
	Detect    string `json:"detect,omitempty"`
	ErrBits   int    `json:"err_bits,omitempty"`
	Program   string `json:"program,omitempty"`
	Shadow    string `json:"shadow,omitempty"`
	Arch      string `json:"arch,omitempty"`
	Name      string `json:"name,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
	Precision uint   `json:"precision,omitempty"`
	Worker    int    `json:"worker,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Bit       int    `json:"bit,omitempty"`
	// Before/After are bit patterns rendered as 0x-prefixed hex so 64-bit
	// values survive JSON number precision.
	Before string `json:"before,omitempty"`
	After  string `json:"after,omitempty"`

	// Addr is a worker URL, stamped on fleet-scheduler events.
	Addr string `json:"addr,omitempty"`
	// Count is a generic occurrence count (detected runs on
	// detection-found events).
	Count int `json:"count,omitempty"`

	// Req identifies the request (or recording run) that produced the
	// event; pdserve stamps it end-to-end so trace lines from concurrent
	// requests stay separable.
	Req string `json:"req,omitempty"`
	// Trace is the fleet-wide trace id (32 hex chars) the request carried
	// in via its traceparent header; empty outside distributed traces.
	// Grep a coordinator-side trace id straight to the worker-side flight
	// dump.
	Trace string `json:"trace,omitempty"`
	// Span is the span id for span-begin/span-end events, deterministic by
	// construction (per-tracer counter), and Parent the enclosing span's
	// id (0 = root).
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// NewEvent returns an event of the kind with the absent-field sentinels
// set.
func NewEvent(kind string) Event {
	return Event{Kind: kind, Run: -1, Inst: -1}
}

// Sink consumes events. Implementations must tolerate events arriving from
// a single goroutine at a time; concurrent producers stage events in one
// Log per run and merge them deterministically.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }
