package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
)

// This file is the coordinator half of fleet-wide tracing. The scheduler
// opens a flat span per shard attempt, stamps the attempt's identity onto
// the outgoing HTTP request (X-Request-Id + W3C traceparent), and — after
// the attempt returns — fetches the worker's retained span batch from
// GET /debug/trace/{requestID}. obs.WriteFleetChromeTrace then folds the
// coordinator stream and every fetched batch into ONE Perfetto-loadable
// file, workers on their own pid rows, request spans hanging under the
// attempt spans that dispatched them.
//
// Ownership: a FleetTrace's span stream is owned by the scheduler's
// event loop — every span and instant is emitted on that goroutine. The
// batch fetch is the one off-loop piece, and it is deliberately off the
// shard critical path: the attempt goroutine reports its result on the
// done channel FIRST and only then fetches the worker's span batch, so
// tracing never delays the next dispatch. Fetched batches are filed
// under a mutex; a WaitGroup makes Snapshot/WriteChrome (called after
// the job returns) wait out any straggling fetches.

// FleetTrace collects one job's coordinator-side trace plus the worker
// span batches fetched per attempt. A nil *FleetTrace is valid and inert —
// every method no-ops — so the scheduler traces unconditionally.
type FleetTrace struct {
	// TraceID is the 32-hex fleet trace id stamped into every outgoing
	// traceparent and onto every coordinator event.
	TraceID string

	log    *obs.Log
	tr     *obs.Tracer
	root   *obs.Span // current job's root span (beginJob/endJob)
	reqSeq uint64

	mu       sync.Mutex // guards byWorker (filed by attempt goroutines)
	wg       sync.WaitGroup
	byWorker map[string][]obs.RequestTrace

	// FetchTimeout bounds one /debug/trace fetch (default 2s).
	FetchTimeout time.Duration
}

// NewFleetTrace builds a collector whose trace id is derived
// deterministically from the job's identity parts (workload, size, seed —
// anything that names the job).
func NewFleetTrace(idParts ...string) *FleetTrace {
	log := &obs.Log{}
	return &FleetTrace{
		TraceID:  obs.DeriveTraceID(idParts...),
		log:      log,
		tr:       obs.NewTracer(log),
		byWorker: map[string][]obs.RequestTrace{},
	}
}

// emit stamps the fleet trace id and hands the event to the log.
func (f *FleetTrace) emit(ev obs.Event) {
	if f == nil {
		return
	}
	ev.Trace = f.TraceID
	f.log.Emit(ev)
}

// beginJob opens the job's root span ("campaign"/"profile"); attempts
// parent under it. endJob (or a second beginJob) closes it.
func (f *FleetTrace) beginJob(kind string) {
	if f == nil {
		return
	}
	f.root.End()
	f.root = f.tr.StartChild(kind, 0)
}

func (f *FleetTrace) endJob() {
	if f == nil {
		return
	}
	f.root.End()
	f.root = nil
}

// attemptTrace is one traced attempt: the stamped request id and the
// coordinator-side attempt span. A nil *attemptTrace is inert.
type attemptTrace struct {
	f    *FleetTrace
	rid  string
	url  string
	span *obs.Span
}

// beginAttempt opens a flat attempt span and mints the attempt's request
// id; the caller records the dispatch instant (it also feeds the live
// event bus, which beginAttempt knows nothing about). Every beginAttempt
// obligates exactly one collect call on the attempt goroutine.
func (f *FleetTrace) beginAttempt(label, workerURL string) *attemptTrace {
	if f == nil {
		return nil
	}
	f.reqSeq++
	at := &attemptTrace{
		f:   f,
		rid: fmt.Sprintf("c%06d", f.reqSeq),
		url: workerURL,
	}
	at.span = f.tr.StartChild(label+" @ "+workerURL, f.root.ID())
	f.wg.Add(1)
	return at
}

// id returns the attempt's request id ("" for an untraced attempt).
func (a *attemptTrace) id() string {
	if a == nil {
		return ""
	}
	return a.rid
}

// binding returns the cross-process identity the HTTP layer stamps onto
// the attempt's request.
func (a *attemptTrace) binding() (rid string, tc obs.TraceContext) {
	if a == nil {
		return "", obs.TraceContext{}
	}
	return a.rid, obs.TraceContext{TraceID: a.f.TraceID, SpanID: a.span.ID()}
}

// collect retrieves the worker's retained span batch for this attempt
// and files it under the worker's pid row. Runs on the attempt
// goroutine AFTER the done-channel send, so the fetch never delays the
// scheduler's next dispatch. Strictly best-effort on a fresh
// short-deadline context (the attempt's own context is typically
// already cancelled): a worker without a flight recorder answers 404
// and the fleet trace simply has no row for the request.
func (a *attemptTrace) collect(client *http.Client) {
	if a == nil {
		return
	}
	defer a.f.wg.Done()
	timeout := a.f.FetchTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.url+"/debug/trace/"+a.rid, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var rt obs.RequestTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(&rt); err != nil {
		return
	}
	if rt.Req != a.rid {
		return // echo mismatch: not our batch, drop it
	}
	a.f.mu.Lock()
	a.f.byWorker[a.url] = append(a.f.byWorker[a.url], rt)
	a.f.mu.Unlock()
}

// finish closes the attempt span. Loop-side, after the done-channel
// receive; the batch is filed by collect on the attempt goroutine.
func (a *attemptTrace) finish() {
	if a == nil {
		return
	}
	a.span.End()
}

// Snapshot returns the coordinator event stream and the per-worker span
// batches collected, workers sorted by label. Call it only after the
// traced job returned (the span stream is loop-owned while it runs); it
// waits out any batch fetches still in flight, each bounded by
// FetchTimeout.
func (f *FleetTrace) Snapshot() (coord []obs.Event, workers []obs.WorkerTrace) {
	if f == nil {
		return nil, nil
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	coord = f.log.Events()
	workers = make([]obs.WorkerTrace, 0, len(f.byWorker))
	for url, reqs := range f.byWorker {
		workers = append(workers, obs.WorkerTrace{Label: url, Requests: reqs})
	}
	// WriteFleetChromeTrace re-sorts, but a deterministic snapshot keeps
	// re-merge tests independent of map iteration order.
	for i := range workers {
		for j := i + 1; j < len(workers); j++ {
			if workers[j].Label < workers[i].Label {
				workers[i], workers[j] = workers[j], workers[i]
			}
		}
	}
	return coord, workers
}

// WriteChrome merges everything collected into one Chrome trace-event
// JSON file, the coordinator labeled coordLabel.
func (f *FleetTrace) WriteChrome(w io.Writer, coordLabel string) error {
	if f == nil {
		return fmt.Errorf("fabric: no fleet trace collected")
	}
	coord, workers := f.Snapshot()
	return obs.WriteFleetChromeTrace(w, coordLabel, coord, workers)
}

// attemptKey carries an attempt's trace binding through the context to
// the HTTP layer, which stamps it onto the outgoing request.
type attemptKey struct{}

type attemptBinding struct {
	rid string
	tc  obs.TraceContext
}

func withAttempt(ctx context.Context, at *attemptTrace) context.Context {
	if at == nil {
		return ctx
	}
	rid, tc := at.binding()
	return context.WithValue(ctx, attemptKey{}, attemptBinding{rid: rid, tc: tc})
}

func attemptFrom(ctx context.Context) (attemptBinding, bool) {
	b, ok := ctx.Value(attemptKey{}).(attemptBinding)
	return b, ok
}

// fleetEvent builds one fleet-scheduler instant, emits it into the trace
// (when tracing) and publishes it on the event bus (when one is attached).
func (c *Coordinator) fleetEvent(kind, name, addr, outcome, req string, count int) {
	if c.trace == nil && c.cfg.Events == nil {
		return
	}
	ev := obs.NewEvent(kind)
	ev.Name, ev.Addr, ev.Outcome, ev.Req, ev.Count = name, addr, outcome, req, count
	if c.trace != nil {
		ev.Trace = c.trace.TraceID
	}
	c.trace.emit(ev)
	c.cfg.Events.Publish(ev)
}

// detectionCount reports how many runs of a completed shard result were
// shadow-detected, for the detection-found instant; 0 for payloads that
// carry no detection notion (profiles).
func detectionCount(res any) int {
	sh, ok := res.(*faultinject.ShardResult)
	if !ok {
		return 0
	}
	n := 0
	for _, rr := range sh.Results {
		if rr.Outcome == faultinject.OutcomeDetected {
			n++
		}
	}
	return n
}
