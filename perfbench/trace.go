package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one wall-clock interval around a call into a layer's public
// function, made by the benchmark's own code. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end closes it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	// Reserve the slot so ids stay dense and ordered by start.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

// id returns the span's id, 0 for a nil span.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
}

// parentHeader carries a client span id to the server-side timing
// middleware, which runs in the same process.
const parentHeader = "X-Perfbench-Parent"

func parseParent(v string) int64 {
	id, _ := strconv.ParseInt(v, 10, 64)
	return id
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that the union of its children covers.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		if s.End == 0 {
			continue // never closed: the call panicked or the run was cut
		}
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeTrace writes the spans and per-layer self times of a traced run to
// path as JSON, and prints the self-time table to log.
func writeTrace(path string, prov provenance, t *tracer, log io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	layers := selfTimes(spans)
	fmt.Fprintf(log, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(log, "%-28s %8d %12.3f %12.3f\n", l.Name, l.Count, l.TotalMS, l.SelfMS)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Provenance provenance  `json:"provenance"`
		Layers     []layerTime `json:"layers"`
		Spans      []span      `json:"spans"`
	}{prov, layers, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
