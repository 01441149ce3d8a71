package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Tracer emits causal spans (span-begin/span-end event pairs) into a sink.
// Span ids are a per-tracer counter in begin order, and the canonical
// stream carries no wall time, so a tracer fed by a deterministic pipeline
// produces byte-identical spans regardless of scheduling; parallel sweeps
// give each run its own tracer over the run's staging Log, exactly like
// every other event.
//
// A nil *Tracer is valid and inert: Start returns a nil span whose End is
// a no-op, so call sites can trace unconditionally:
//
//	defer tr.Start("compile").End()
//
// Not safe for concurrent use — one tracer per goroutine, like Log.
type Tracer struct {
	sink  Sink
	next  uint64
	stack []uint64
}

// NewTracer returns a tracer emitting into sink.
func NewTracer(sink Sink) *Tracer { return &Tracer{sink: sink} }

// Span is one open span; End closes it. The zero of *Span (nil) is inert.
type Span struct {
	t    *Tracer
	id   uint64
	name string
	done bool
	flat bool // opened via StartChild: not on the nesting stack
}

// ID returns the span's id (0 for a nil span) — the value a caller
// propagates cross-process as the traceparent parent span id.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a span nested under the tracer's currently open span.
func (t *Tracer) Start(name string) *Span {
	if t == nil || t.sink == nil {
		return nil
	}
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := t.StartChild(name, parent)
	s.flat = false
	t.stack = append(t.stack, s.id)
	return s
}

// StartChild opens a span explicitly parented under parent (0 = root),
// bypassing the tracer's nesting stack entirely. It exists for event-loop
// callers — a fleet scheduler has many attempt spans open at once, and
// stack discipline would mis-nest them; flat spans close in any order
// without touching each other.
func (t *Tracer) StartChild(name string, parent uint64) *Span {
	if t == nil || t.sink == nil {
		return nil
	}
	t.next++
	id := t.next
	e := NewEvent(EvSpanBegin)
	e.Name = name
	e.Span = id
	e.Parent = parent
	t.sink.Emit(e)
	return &Span{t: t, id: id, name: name, flat: true}
}

// End closes the span, emitting its span-end event. Ending out of order
// pops the stack down to (and including) this span, so a forgotten inner
// End cannot wedge the tracer. Double End is a no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	t := s.t
	if !s.flat {
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == s.id {
				t.stack = t.stack[:i]
				break
			}
		}
	}
	e := NewEvent(EvSpanEnd)
	e.Name = s.name
	e.Span = s.id
	t.sink.Emit(e)
}

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// with metadata" variant), the subset Perfetto renders: complete spans
// (ph "X") and instants (ph "i").
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// newChromeTrace returns an empty trace in millisecond display units.
func newChromeTrace() chromeTrace {
	return chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
}

// writeTo writes the trace as indented JSON.
func (tr *chromeTrace) writeTo(w io.Writer) error {
	b, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// spanEnds matches every span-begin in events to the first span-end with
// the same id after it, returning the end's index keyed by the begin's.
// Spans still open at the end of events are absent.
func spanEnds(events []Event) map[int]int {
	open := map[uint64]int{} // span id → index of its unmatched begin
	ends := map[int]int{}
	for i, e := range events {
		switch e.Kind {
		case EvSpanBegin:
			if e.Span != 0 {
				open[e.Span] = i
			}
		case EvSpanEnd:
			if b, ok := open[e.Span]; ok {
				ends[b] = i
				delete(open, e.Span)
			}
		}
	}
	return ends
}

// track is one row (pid, tid) of a Chrome trace: one run's or one
// request's events, in their own span-id space.
type track struct {
	pid, tid int
	events   []Event
	ts       func(i int) uint64 // timeline position of events[i]
	req      string             // args.req on every slice, when set
	rootArgs map[string]string  // added to slices without a local parent
}

// writeTrack appends t's spans as complete ("X") slices and its
// detections and injections as instant ("i") markers. Span ends are
// matched within the track, so tracks whose tracers reuse span ids never
// close each other's spans. Span ids are shifted by base to stay unique
// within the pid; writeTrack returns the base for the pid's next track.
// Spans still open at the end of the track are dropped.
func (tr *chromeTrace) writeTrack(t track, base uint64) uint64 {
	ends := spanEnds(t.events)
	next := base
	for i, e := range t.events {
		next = max(next, base+e.Span)
		switch e.Kind {
		case EvSpanBegin:
			j, ok := ends[i]
			if !ok {
				continue
			}
			ce := chromeEvent{
				Name: e.Name, Phase: "X", TS: t.ts(i),
				Dur: max(t.ts(j)-t.ts(i), 1), PID: t.pid, TID: t.tid,
				Args: map[string]string{"span": fmt.Sprint(base + e.Span)},
			}
			if t.req != "" {
				ce.Args["req"] = t.req
			}
			if e.Parent != 0 {
				ce.Args["parent"] = fmt.Sprint(base + e.Parent)
			} else {
				for k, v := range t.rootArgs {
					ce.Args[k] = v
				}
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		case EvDetect, EvInject:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: e.Kind, Phase: "i", Scope: "t",
				TS: t.ts(i), PID: t.pid, TID: t.tid,
				Args: instantArgs(e),
			})
		}
	}
	return next
}

// WriteChromeTrace converts an event stream into Chrome trace-event JSON
// loadable in Perfetto or chrome://tracing. Each distinct (run, req) is
// one track (tid), numbered in first-appearance order and written by
// writeTrack. Timestamps are virtual — the event's sequence number, in
// microsecond ticks — so the output inherits the stream's byte
// determinism.
func WriteChromeTrace(w io.Writer, events []Event) error {
	type key struct {
		run int
		req string
	}
	index := map[key]int{}
	var tracks []track
	for _, e := range events {
		switch e.Kind {
		case EvSpanBegin, EvSpanEnd, EvDetect, EvInject:
		default:
			continue // drawn on no track
		}
		k := key{e.Run, e.Req}
		i, ok := index[k]
		if !ok {
			i = len(tracks)
			index[k] = i
			tracks = append(tracks, track{pid: 1, tid: i + 1, req: e.Req})
		}
		tracks[i].events = append(tracks[i].events, e)
	}
	tr := newChromeTrace()
	var base uint64
	for _, t := range tracks {
		t.ts = func(i int) uint64 { return t.events[i].Seq }
		base = tr.writeTrack(t, base)
	}
	// Tracks interleave in time; keep the pid's events in timestamp order.
	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		return tr.TraceEvents[i].TS < tr.TraceEvents[j].TS
	})
	return tr.writeTo(w)
}

// ValidateChromeTrace checks Chrome trace-event JSON structurally,
// including the multi-process traces the fleet merger emits. Violations
// fail with a named rule:
//
//   - "parse": the top-level object must decode with no unknown fields.
//   - "name": every event needs a name.
//   - "phase": only complete ("X"), instant ("i") and metadata ("M")
//     events are in the supported subset.
//   - "dur": complete events carry a positive duration.
//   - "pid-tid": X and i events need positive pid and tid.
//   - "pid-monotonic-ts": within one pid, timestamps never go backward in
//     file order — per-process Seq-virtual time must stay monotonic after
//     the merger rebases it.
//   - "orphan-parent": in a pid whose spans declare their own ids
//     (args.span — the fleet merger always does), every args.parent must
//     name a span id declared in that same pid, and every args.coord_span
//     (a worker span's cross-process parent) must name a span id declared
//     by the coordinator process, pid 1. Single-process traces predating
//     args.span are exempt.
//   - "nest": complete slices on one (pid, tid) either nest or are
//     disjoint; Perfetto stacks a track's slices by containment, so a
//     slice that outlives the one it starts in is drawn under the wrong
//     parent. Of two slices that begin together, the outer comes first.
//
// Returns the number of trace events.
func ValidateChromeTrace(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr chromeTrace
	if err := dec.Decode(&tr); err != nil {
		return 0, fmt.Errorf("chrome trace: rule parse: %v", err)
	}

	// First pass: per-pid declared span ids, for the orphan-parent rule.
	spansByPID := map[int]map[string]bool{}
	for _, e := range tr.TraceEvents {
		if id := e.Args["span"]; id != "" {
			if spansByPID[e.PID] == nil {
				spansByPID[e.PID] = map[string]bool{}
			}
			spansByPID[e.PID][id] = true
		}
	}

	rows := map[[2]int]nesting{} // open complete slices by (pid, tid)
	lastTS := map[int]uint64{}
	seenPID := map[int]bool{}
	for i, e := range tr.TraceEvents {
		if e.Name == "" {
			return i, fmt.Errorf("chrome trace: event %d: rule name: missing name", i)
		}
		switch e.Phase {
		case "X":
			if e.Dur == 0 {
				return i, fmt.Errorf("chrome trace: event %d (%s): rule dur: complete event without dur", i, e.Name)
			}
		case "i":
		case "M":
			// Metadata events (process_name etc.) carry no timeline position.
			continue
		default:
			return i, fmt.Errorf("chrome trace: event %d (%s): rule phase: unsupported phase %q", i, e.Name, e.Phase)
		}
		if e.PID <= 0 || e.TID <= 0 {
			return i, fmt.Errorf("chrome trace: event %d (%s): rule pid-tid: bad pid/tid %d/%d", i, e.Name, e.PID, e.TID)
		}
		if seenPID[e.PID] && e.TS < lastTS[e.PID] {
			return i, fmt.Errorf("chrome trace: event %d (%s): rule pid-monotonic-ts: ts %d after %d in pid %d",
				i, e.Name, e.TS, lastTS[e.PID], e.PID)
		}
		seenPID[e.PID], lastTS[e.PID] = true, e.TS
		if e.Phase == "X" {
			row := [2]int{e.PID, e.TID}
			n := rows[row]
			if !n.open(e.TS, e.TS+e.Dur) {
				return i, fmt.Errorf("chrome trace: event %d (%s): rule nest: slice [%d,%d) on pid %d tid %d outlives the slice it starts in, which ends at %d",
					i, e.Name, e.TS, e.TS+e.Dur, e.PID, e.TID, n[len(n)-1])
			}
			rows[row] = n
		}
		if set := spansByPID[e.PID]; set != nil {
			if p := e.Args["parent"]; p != "" && !set[p] {
				return i, fmt.Errorf("chrome trace: event %d (%s): rule orphan-parent: parent span %s not declared in pid %d",
					i, e.Name, p, e.PID)
			}
		}
		if cp := e.Args["coord_span"]; cp != "" && !spansByPID[coordinatorPID][cp] {
			return i, fmt.Errorf("chrome trace: event %d (%s): rule orphan-parent: coord_span %s not declared by coordinator pid %d",
				i, e.Name, cp, coordinatorPID)
		}
	}
	return len(tr.TraceEvents), nil
}
