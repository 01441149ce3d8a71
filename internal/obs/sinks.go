package obs

import (
	"encoding/json"
	"io"
)

// JSONLines writes each event as one JSON object per line — the `pd -trace
// out.jsonl` format. It assigns sequence numbers as it writes, so a stream
// produced by deterministic emission order is byte-identical across runs.
// Errors are sticky: the first write error is kept and later emits become
// no-ops, so hot paths never need to check an error per event.
type JSONLines struct {
	w   io.Writer
	enc *json.Encoder
	n   uint64
	err error
}

// NewJSONLines returns a JSON-lines sink over w.
func NewJSONLines(w io.Writer) *JSONLines {
	return &JSONLines{w: w, enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLines) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.n++
	e.Seq = s.n
	s.err = s.enc.Encode(e)
}

// Count reports how many events were written.
func (s *JSONLines) Count() uint64 { return s.n }

// Err returns the first write error, if any.
func (s *JSONLines) Err() error { return s.err }

// Ring keeps the most recent events in a fixed-capacity ring buffer — the
// bounded in-memory sink for always-on tracing: any number of runs can
// emit into it with memory bounded by the capacity.
type Ring struct {
	buf     []Event
	next    int
	total   uint64
	dropped uint64
}

// NewRing returns a ring sink holding at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.total++
	e.Seq = r.total
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.dropped++
}

// Total reports how many events were emitted over the ring's lifetime
// (including evicted ones).
func (r *Ring) Total() uint64 { return r.total }

// Len reports how many events are currently retained.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped reports how many events the ring has evicted to make room —
// the flight recorder's data-loss indicator. Total() − Dropped() ==
// Len() always holds.
func (r *Ring) Dropped() uint64 { return r.dropped }

// PublishMetrics records the ring's lifetime totals into the registry as
// pd_flight_events_total / pd_flight_dropped_total counters (monotonic:
// callers invoke it once per ring lifetime, e.g. after a request).
func (r *Ring) PublishMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Counter("pd_flight_events_total").Add(int64(r.total))
	reg.Counter("pd_flight_dropped_total").Add(int64(r.dropped))
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// Reset drops all retained events and restarts the sequence.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
	r.dropped = 0
}

// Buffer accumulates events in order without assigning sequence numbers —
// the per-shard staging area of a parallel sweep. Each worker fills its
// run's buffer; the campaign forwards buffers to the terminal sink in run
// index order, which assigns the final sequence numbers. That two-phase
// scheme is what makes a parallel trace byte-identical to a sequential one.
type Buffer struct {
	events []Event
}

// Emit implements Sink.
func (b *Buffer) Emit(e Event) { b.events = append(b.events, e) }

// Events returns the buffered events in emission order.
func (b *Buffer) Events() []Event { return b.events }

// Len reports the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// Reset drops the buffered events, keeping the backing array.
func (b *Buffer) Reset() { b.events = b.events[:0] }

// SeqBuffer is a terminal in-memory sink: like Buffer it retains every
// event, but it assigns sequence numbers on emit. It is the sink to feed
// WriteChromeTrace, whose virtual timestamps are the sequence numbers —
// events staged in per-run Buffers get their final order here.
type SeqBuffer struct {
	events []Event
}

// Emit implements Sink.
func (b *SeqBuffer) Emit(e Event) {
	e.Seq = uint64(len(b.events) + 1)
	b.events = append(b.events, e)
}

// Events returns the retained events in emission order.
func (b *SeqBuffer) Events() []Event { return b.events }

// Len reports the number of retained events.
func (b *SeqBuffer) Len() int { return len(b.events) }
