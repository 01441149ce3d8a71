package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Tracer emits causal spans (span-begin/span-end event pairs) into a sink.
// Span ids are a per-tracer counter in begin order, and the canonical
// stream carries no wall time, so a tracer fed by a deterministic pipeline
// produces byte-identical spans regardless of scheduling; parallel sweeps
// give each run its own tracer over the run's Buffer, exactly like every
// other event.
//
// A nil *Tracer is valid and inert: Start returns a nil span whose End is
// a no-op, so call sites can trace unconditionally:
//
//	defer tr.Start("compile").End()
//
// Not safe for concurrent use — one tracer per goroutine, like Buffer.
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
	t.next++
	id := t.next
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	e := NewEvent(EvSpanBegin)
	e.Name = name
	e.Span = id
	e.Parent = parent
	t.sink.Emit(e)
	return &Span{t: t, id: id, name: name}
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

// WriteChromeTrace converts an event stream into Chrome trace-event JSON
// loadable in Perfetto or chrome://tracing. Spans become complete ("X")
// slices, detections and injections become instant ("i") markers.
// Timestamps are virtual — the event's sequence number, in microsecond
// ticks — so the output inherits the stream's byte determinism. Tracks
// (tids) are assigned per distinct (run, req) in first-appearance order.
// Spans still open at the end of the stream are dropped.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Pre-index span ends by id so a single forward pass can emit complete
	// slices at their begin position (keeping output order deterministic).
	ends := map[uint64]uint64{} // span id → end seq
	for _, e := range events {
		if e.Kind == EvSpanEnd && e.Span != 0 {
			ends[e.Span] = e.Seq
		}
	}

	tids := map[string]int{}
	tidOf := func(e Event) int {
		key := fmt.Sprintf("%d/%s", e.Run, e.Req)
		if id, ok := tids[key]; ok {
			return id
		}
		id := len(tids) + 1
		tids[key] = id
		return id
	}

	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, e := range events {
		switch e.Kind {
		case EvSpanBegin:
			end, ok := ends[e.Span]
			if !ok || end < e.Seq {
				continue
			}
			ce := chromeEvent{
				Name: e.Name, Phase: "X",
				TS: e.Seq, Dur: end - e.Seq,
				PID: 1, TID: tidOf(e),
			}
			if ce.Dur == 0 {
				ce.Dur = 1
			}
			args := map[string]string{}
			if e.Req != "" {
				args["req"] = e.Req
			}
			if e.Parent != 0 {
				args["parent"] = fmt.Sprint(e.Parent)
			}
			if len(args) > 0 {
				ce.Args = args
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		case EvDetect, EvInject:
			ce := chromeEvent{
				Name: e.Kind, Phase: "i", Scope: "t",
				TS: e.Seq, PID: 1, TID: tidOf(e),
			}
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
			if len(args) > 0 {
				ce.Args = args
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		}
	}
	b, err := marshalChrome(&tr)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func marshalChrome(tr *chromeTrace) ([]byte, error) {
	b, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
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
			set := spansByPID[e.PID]
			if set == nil {
				set = map[string]bool{}
				spansByPID[e.PID] = set
			}
			set[id] = true
		}
	}

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
