package obs

import (
	"fmt"
	"io"
	"sort"
)

// Multi-process Chrome-trace merging. A fleet campaign produces one
// coordinator event stream (scheduler spans + fleet instants) and, per
// worker, a set of per-request span batches fetched from the worker's
// /debug/trace endpoint. WriteFleetChromeTrace folds them into ONE
// Perfetto-loadable file: the coordinator on pid 1, each worker on its
// own pid row, and every worker request span parented (via args.coord_span)
// under the coordinator attempt span that dispatched it.
//
// Determinism rules. Output depends only on the *content* of the inputs,
// never on arrival order: workers are sorted by label, requests by their
// parent attempt's position then id, and all timestamps are Seq-virtual.
// Each process keeps its own virtual clock; the merger rebases them onto
// one timeline by slotting every worker batch strictly inside its parent
// attempt span: with W = 2 + the largest batch length, coordinator seq s
// maps to ts s·W, and a batch parented under an attempt that began at
// coordinator seq b occupies ts b·W+1 … b·W+1+len — always inside the
// attempt slice, which cannot end before (b+1)·W.

// coordinatorPID is the pid row the merger reserves for the coordinator
// process; ValidateChromeTrace resolves args.coord_span against it.
const coordinatorPID = 1

// RequestTrace is one worker request's span batch, as served by
// GET /debug/trace/{requestID}.
type RequestTrace struct {
	// Req is the request id (coordinator-stamped via X-Request-Id).
	Req string `json:"req"`
	// Trace is the trace id the request carried in (may be empty).
	Trace string `json:"trace,omitempty"`
	// Parent is the coordinator-side span id from the incoming
	// traceparent — the attempt span this request hangs under.
	Parent uint64 `json:"parent,omitempty"`
	// Events is the flight recorder's capture for the request, local
	// Seq/span-id space.
	Events []Event `json:"events"`
}

// WorkerTrace is one worker process's contribution to a fleet trace.
type WorkerTrace struct {
	// Label names the worker's pid row (its URL, typically).
	Label string `json:"label"`
	// Requests holds the request batches collected from this worker, in
	// any order.
	Requests []RequestTrace `json:"requests"`
}

// WriteFleetChromeTrace merges one coordinator event stream and any
// number of worker span batches into a single Chrome trace-event JSON
// file. Every request batch must carry a Parent naming a span that
// begins in the coordinator stream; an unresolvable parent is an error
// (rule orphan-parent), not a silent drop — a trace that quietly lost a
// worker would defeat its purpose.
func WriteFleetChromeTrace(w io.Writer, coordLabel string, coord []Event, workers []WorkerTrace) error {
	// Canonicalize inputs: workers by label, dedup by label (last write
	// wins would be order-dependent, so duplicates are an error).
	ws := append([]WorkerTrace(nil), workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Label < ws[j].Label })
	for i := 1; i < len(ws); i++ {
		if ws[i].Label == ws[i-1].Label {
			return fmt.Errorf("fleet trace: duplicate worker label %q", ws[i].Label)
		}
	}

	// Slot width: wide enough that any batch fits inside one coordinator
	// seq tick.
	maxBatch := 0
	for _, wt := range ws {
		for _, rt := range wt.Requests {
			maxBatch = max(maxBatch, len(rt.Events))
		}
	}
	slot := uint64(2 + maxBatch)

	tr := newChromeTrace()
	meta := func(pid int, name string) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 1,
			Args: map[string]string{"name": name},
		})
	}
	meta(coordinatorPID, coordLabel)
	for i, wt := range ws {
		meta(coordinatorPID+1+i, wt.Label)
	}

	// Coordinator row: spans emitted at their begin position in seq
	// order, instants in place. Lanes (tids) are allocated so that
	// overlapping attempt spans (hedges, concurrent shards) never share a
	// track unless properly nested — Chrome's "X" rendering stacks by
	// containment per tid.
	begins := map[uint64]uint64{} // coordinator span id → begin seq
	ends := spanEnds(coord)
	var lanes laneAlloc
	for i, e := range coord {
		switch e.Kind {
		case EvSpanBegin:
			begins[e.Span] = e.Seq
			j, ok := ends[i]
			if !ok {
				continue // still open at stream end: dropped, like WriteChromeTrace
			}
			ts, end := e.Seq*slot, coord[j].Seq*slot
			ce := chromeEvent{
				Name: e.Name, Phase: "X", TS: ts, Dur: max(end-ts, 1),
				PID: coordinatorPID, TID: lanes.assign(ts, end),
				Args: map[string]string{"span": fmt.Sprint(e.Span)},
			}
			if e.Parent != 0 {
				ce.Args["parent"] = fmt.Sprint(e.Parent)
			}
			if e.Req != "" {
				ce.Args["req"] = e.Req
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		case EvSpanEnd:
		default:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: e.Kind, Phase: "i", Scope: "t",
				TS: e.Seq * slot, PID: coordinatorPID, TID: 1,
				Args: instantArgs(e),
			})
		}
	}

	// Worker rows, one track per request. Requests are ordered by their
	// parent attempt's begin position (then id), which both makes per-pid
	// timestamps monotonic and keeps the output independent of
	// fetch/arrival order.
	for wi, wt := range ws {
		pid := coordinatorPID + 1 + wi
		reqs := append([]RequestTrace(nil), wt.Requests...)
		baseOf := make(map[string]uint64, len(reqs))
		for _, rt := range reqs {
			b, ok := begins[rt.Parent]
			if rt.Parent == 0 || !ok {
				return fmt.Errorf("fleet trace: rule orphan-parent: request %s from %s: parent span %d not in coordinator stream",
					rt.Req, wt.Label, rt.Parent)
			}
			baseOf[rt.Req] = b * slot
		}
		sort.Slice(reqs, func(i, j int) bool {
			bi, bj := baseOf[reqs[i].Req], baseOf[reqs[j].Req]
			if bi != bj {
				return bi < bj
			}
			return reqs[i].Req < reqs[j].Req
		})
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Req == reqs[i-1].Req {
				return fmt.Errorf("fleet trace: duplicate request %s from %s", reqs[i].Req, wt.Label)
			}
		}
		var ids uint64
		for ti, rt := range reqs {
			base := baseOf[rt.Req]
			// A request-root span's parent lives in the coordinator process.
			root := map[string]string{"coord_span": fmt.Sprint(rt.Parent)}
			if rt.Trace != "" {
				root["trace"] = rt.Trace
			}
			ids = tr.writeTrack(track{
				pid: pid, tid: ti + 1, events: rt.Events,
				ts:  func(i int) uint64 { return base + 1 + uint64(i) },
				req: rt.Req, rootArgs: root,
			}, ids)
		}
	}
	return tr.writeTo(w)
}

// instantArgs renders an event's populated fields as Chrome args.
func instantArgs(e Event) map[string]string {
	args := map[string]string{}
	if e.Detect != "" {
		args["detect"] = e.Detect
	}
	if e.Pos != "" {
		args["pos"] = e.Pos
	}
	if e.Inst >= 0 {
		args["inst"] = fmt.Sprint(e.Inst)
	}
	if e.Addr != "" {
		args["addr"] = e.Addr
	}
	if e.Outcome != "" {
		args["outcome"] = e.Outcome
	}
	if e.Name != "" {
		args["shard"] = e.Name
	}
	if e.Req != "" {
		args["req"] = e.Req
	}
	if e.Count != 0 {
		args["count"] = fmt.Sprint(e.Count)
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// nesting is one track's stack of open slice ends, innermost last.
type nesting []uint64

// open closes every slice that ends by begin, then opens [begin, end)
// unless it would outlive the innermost slice still open; it reports
// whether it did. Slices must come in begin order.
func (n *nesting) open(begin, end uint64) bool {
	s := *n
	for len(s) > 0 && s[len(s)-1] <= begin {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] < end {
		*n = s
		return false
	}
	*n = append(s, end)
	return true
}

// laneAlloc assigns coordinator spans to tid lanes so that slices on one
// lane always nest: a span takes the first lane it nests on. Spans must
// be offered in begin order.
type laneAlloc []nesting

func (l *laneAlloc) assign(begin, end uint64) int {
	for i := range *l {
		if (*l)[i].open(begin, end) {
			return i + 1
		}
	}
	*l = append(*l, nesting{end})
	return len(*l)
}
