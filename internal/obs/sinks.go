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

// Log is the in-memory sink. It numbers events 1, 2, … as they arrive
// and keeps them in order. A bounded log keeps only the most recent
// capacity events, evicting the oldest and counting the drops: the
// flight recorder's per-request ring. An unbounded log (capacity 0, or
// the zero Log) keeps everything: a run's staging area in a parallel
// sweep, and the terminal sink whose events WriteChromeTrace reads. A
// staged log's numbers are provisional; the terminal sink it drains into
// renumbers the merged stream.
type Log struct {
	buf   []Event
	max   int // 0 = unbounded
	next  int // once full, the slot of the oldest event
	total uint64
}

// NewLog returns a log holding at most capacity events (0 = unbounded).
// The log grows as events arrive, so a short run's log stays small.
func NewLog(capacity int) *Log { return &Log{max: max(capacity, 0)} }

// Emit implements Sink.
func (l *Log) Emit(e Event) {
	l.total++
	e.Seq = l.total
	if l.max == 0 || len(l.buf) < l.max {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % l.max
}

// Events returns the retained events, oldest first. The slice is the
// log's own unless the log has wrapped.
func (l *Log) Events() []Event {
	if l.next == 0 {
		return l.buf
	}
	return append(append(make([]Event, 0, len(l.buf)), l.buf[l.next:]...), l.buf[:l.next]...)
}

// Len reports how many events are retained.
func (l *Log) Len() int { return len(l.buf) }

// Total reports how many events were emitted, evicted ones included.
func (l *Log) Total() uint64 { return l.total }

// Dropped reports how many events a bounded log has evicted to make
// room, the flight recorder's data-loss indicator: Total() − Dropped()
// == Len() always holds.
func (l *Log) Dropped() uint64 { return l.total - uint64(len(l.buf)) }
