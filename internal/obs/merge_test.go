package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files:
//
//	go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: DeriveTraceID("polybench/gemm", "42"), SpanID: 0xdeadbeef}
	if !tc.Valid() {
		t.Fatalf("derived context invalid: %+v", tc)
	}
	h := tc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok || got != tc {
		t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", h, got, ok, tc)
	}
	for _, bad := range []string{
		"", "00-zz-11-01", "00-abc-0000000000000001-01",
		"00-" + tc.TraceID + "-0000000000000000-01", // zero span id
		"00-" + tc.TraceID + "-01",                  // missing field
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	if DeriveTraceID("a", "b") == DeriveTraceID("a", "c") {
		t.Error("distinct inputs derived the same trace id")
	}
	if DeriveTraceID("x") != DeriveTraceID("x") {
		t.Error("DeriveTraceID not deterministic")
	}
}

func TestStartChildFlatSpans(t *testing.T) {
	log := &Log{}
	tr := NewTracer(log)
	root := tr.StartChild("campaign", 0)
	a := tr.StartChild("attempt-a", root.ID())
	b := tr.StartChild("attempt-b", root.ID())
	// Flat spans close in any order without disturbing each other.
	a.End()
	c := tr.StartChild("attempt-c", root.ID())
	b.End()
	c.End()
	root.End()
	evs := log.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8", len(evs))
	}
	for _, e := range evs {
		if e.Kind == EvSpanBegin && e.Span != root.ID() && e.Parent != root.ID() {
			t.Errorf("span %d (%s) parent %d, want %d", e.Span, e.Name, e.Parent, root.ID())
		}
	}
}

// fleetFixture builds a small synthetic coordinator stream plus two worker
// batches — one hedged attempt (overlapping spans) included.
func fleetFixture() (coord []Event, workers []WorkerTrace) {
	log := &Log{}
	tr := NewTracer(log)
	root := tr.StartChild("campaign", 0)
	a1 := tr.StartChild("shard[0,8) @ w1", root.ID())
	a2 := tr.StartChild("shard[8,16) @ w2", root.ID())
	// A hedge overlaps the first attempt.
	h := tr.StartChild("shard[0,8) @ w2 (hedge)", root.ID())
	ev := NewEvent(EvShardDispatch)
	ev.Name, ev.Addr, ev.Outcome, ev.Req = "shard[0,8)", "w2", "hedge", "c2"
	log.Emit(ev)
	a1.End()
	h.End()
	a2.End()
	root.End()

	workerBatch := func(req string, parent uint64, withDetect bool) RequestTrace {
		wlog := &Log{}
		wtr := NewTracer(wlog)
		rs := wtr.Start("request")
		wtr.Start("compile").End()
		if withDetect {
			d := NewEvent(EvDetect)
			d.Detect = "nar"
			wlog.Emit(d)
		}
		rs.End()
		// A worker stamps every event of a request with its id.
		evs := wlog.Events()
		for i := range evs {
			evs[i].Req = req
		}
		return RequestTrace{Req: req, Trace: DeriveTraceID("t"), Parent: parent, Events: evs}
	}
	w1 := WorkerTrace{Label: "w1", Requests: []RequestTrace{workerBatch("c1", a1.ID(), true)}}
	w2 := WorkerTrace{Label: "w2", Requests: []RequestTrace{
		workerBatch("c2", h.ID(), false),
		workerBatch("c3", a2.ID(), false),
	}}
	return log.Events(), []WorkerTrace{w1, w2}
}

func TestFleetChromeTraceMergeDeterministic(t *testing.T) {
	coord, workers := fleetFixture()
	var a, b bytes.Buffer
	if err := WriteFleetChromeTrace(&a, "pdcoord", coord, workers); err != nil {
		t.Fatal(err)
	}
	// Reversed arrival order (workers and requests) must not change a byte.
	rev := []WorkerTrace{workers[1], workers[0]}
	rev[0].Requests = []RequestTrace{rev[0].Requests[1], rev[0].Requests[0]}
	if err := WriteFleetChromeTrace(&b, "pdcoord", coord, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge depends on arrival order:\n%s\nvs\n%s", a.String(), b.String())
	}
	n, err := ValidateChromeTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("empty merged trace")
	}
	out := a.String()
	for _, want := range []string{
		`"pdcoord"`, `"w1"`, `"w2"`,
		`"coord_span"`, `"shard-dispatch"`, `"detection"`,
		`"shard[0,8) @ w2 (hedge)"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged trace missing %s", want)
		}
	}
}

// TestFleetChromeTraceGolden pins the merger's bytes on fleetFixture, so
// a change to lanes, slot rebasing, span-id shifting or instant args is a
// golden diff.
func TestFleetChromeTraceGolden(t *testing.T) {
	coord, workers := fleetFixture()
	var got bytes.Buffer
	if err := WriteFleetChromeTrace(&got, "pdcoord", coord, workers); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fleet_fixture.chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fleet trace drifted from %s — if the change is intentional, re-run with -update and review the diff\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

func TestFleetChromeTraceOrphanParent(t *testing.T) {
	coord, workers := fleetFixture()
	workers[0].Requests[0].Parent = 9999
	err := WriteFleetChromeTrace(&bytes.Buffer{}, "pdcoord", coord, workers)
	if err == nil || !strings.Contains(err.Error(), "orphan-parent") {
		t.Fatalf("orphan parent not rejected by name: %v", err)
	}
}

func TestValidateChromeTraceMultiPIDRules(t *testing.T) {
	cases := []struct {
		name, rule, body string
	}{
		{"backward ts in one pid", "pid-monotonic-ts", `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"dur":1,"pid":2,"tid":1},
			{"name":"b","ph":"X","ts":3,"dur":1,"pid":2,"tid":1}]}`},
		{"orphan parent in span-declaring pid", "orphan-parent", `{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"span":"1"}},
			{"name":"b","ph":"X","ts":2,"dur":1,"pid":1,"tid":1,"args":{"span":"2","parent":"7"}}]}`},
		{"coord_span unresolved", "orphan-parent", `{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"span":"1"}},
			{"name":"b","ph":"X","ts":2,"dur":1,"pid":2,"tid":1,"args":{"span":"1","coord_span":"9"}}]}`},
		{"unknown phase", "phase", `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}`},
	}
	for _, tc := range cases {
		_, err := ValidateChromeTrace(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), "rule "+tc.rule) {
			t.Errorf("%s: want rule %q, got %v", tc.name, tc.rule, err)
		}
	}
	// Different pids keep independent clocks: interleaved ts across pids
	// is legal, and metadata events are exempt from pid/tid rules.
	ok := `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"coord"}},
		{"name":"a","ph":"X","ts":10,"dur":5,"pid":1,"tid":1,"args":{"span":"1"}},
		{"name":"b","ph":"X","ts":2,"dur":1,"pid":2,"tid":1},
		{"name":"c","ph":"i","ts":11,"pid":1,"tid":1}]}`
	if n, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil || n != 4 {
		t.Errorf("legal multi-pid trace rejected: n=%d err=%v", n, err)
	}
}

func TestWorkerStatsCacheHitRate(t *testing.T) {
	if r := (WorkerStats{}).CacheHitRate(); r != 0 {
		t.Errorf("empty hit rate = %v", r)
	}
	if r := (WorkerStats{CacheHits: 3, CacheMisses: 1}).CacheHitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
	reg := NewRegistry()
	reg.Counter(`pd_detections_total{kind="nar"}`).Add(2)
	reg.Counter(`pd_detections_total{kind="cancellation"}`).Add(3)
	reg.Counter("pd_detections_totally_different").Add(100)
	if s := reg.SumCounters("pd_detections_total"); s != 5 {
		t.Errorf("SumCounters = %d, want 5", s)
	}
}
