package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerSpans(t *testing.T) {
	var buf Log
	tr := NewTracer(&buf)
	outer := tr.Start("exec")
	inner := tr.Start("shadow-exec")
	inner.End()
	inner.End() // double End must be a no-op
	outer.End()

	evs := buf.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != EvSpanBegin || evs[0].Name != "exec" || evs[0].Span != 1 || evs[0].Parent != 0 {
		t.Errorf("outer begin = %+v", evs[0])
	}
	if evs[1].Kind != EvSpanBegin || evs[1].Span != 2 || evs[1].Parent != 1 {
		t.Errorf("inner begin = %+v", evs[1])
	}
	if evs[2].Kind != EvSpanEnd || evs[2].Span != 2 {
		t.Errorf("inner end = %+v", evs[2])
	}
	if evs[3].Kind != EvSpanEnd || evs[3].Span != 1 {
		t.Errorf("outer end = %+v", evs[3])
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	tr.Start("anything").End() // must not panic
	tr.StartChild("child", 0).End()
}

func TestTracerOutOfOrderEnd(t *testing.T) {
	var buf Log
	tr := NewTracer(&buf)
	outer := tr.Start("outer")
	tr.Start("leaked") // never ended
	outer.End()
	next := tr.Start("after")
	if got := buf.Events()[len(buf.Events())-1].Parent; got != 0 {
		t.Errorf("span after out-of-order End has parent %d, want 0 (stack unwound)", got)
	}
	next.End()
}

func TestSpanSchemaValid(t *testing.T) {
	var sb strings.Builder
	jl := NewJSONLines(&sb)
	tr := NewTracer(jl)
	tr.Start("compile").End()
	e := NewEvent(EvRunStart)
	e.Func = "main"
	e.Req = "req-1"
	jl.Emit(e)
	if n, err := ValidateJSONLines(strings.NewReader(sb.String())); err != nil || n != 3 {
		t.Fatalf("validate: n=%d err=%v\n%s", n, err, sb.String())
	}
}

func TestSpanSchemaRejects(t *testing.T) {
	for _, line := range []string{
		`{"seq":1,"kind":"span-begin","run":-1,"inst":-1,"span":3}`,                       // no name
		`{"seq":1,"kind":"span-end","run":-1,"inst":-1,"name":"x"}`,                       // no span id
		`{"seq":1,"kind":"span-begin","run":-1,"inst":-1,"name":"x","span":1,"parent":5}`, // parent newer
	} {
		if _, err := ValidateJSONLines(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted invalid span line %s", line)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf Log
	tr := NewTracer(&buf)
	outer := tr.Start("exec")
	inner := tr.Start("shadow-exec")
	inner.End()
	d := NewEvent(EvDetect)
	d.Detect = "cancellation"
	d.Pos = "k:1:2"
	d.Inst = 7
	buf.Emit(d)
	outer.End()
	tr.Start("dangling") // open span: must be dropped, not crash

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, out.String())
	}
	if n != 3 { // exec, shadow-exec, detection instant
		t.Errorf("got %d chrome events, want 3:\n%s", n, out.String())
	}
	s := out.String()
	for _, want := range []string{`"name": "exec"`, `"name": "shadow-exec"`, `"ph": "X"`, `"ph": "i"`, `"detect": "cancellation"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, s)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	record := func() string {
		var buf Log
		tr := NewTracer(&buf)
		for i := 0; i < 3; i++ {
			s := tr.Start("run")
			tr.Start("inner").End()
			s.End()
		}
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, buf.Events()); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := record(), record(); a != b {
		t.Fatalf("chrome trace not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	for _, body := range []string{
		`{"bogus":true}`,
		`{"traceEvents":[{"name":"","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"i","ts":1,"pid":0,"tid":1}]}`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(body)); err == nil {
			t.Errorf("accepted invalid chrome trace %s", body)
		}
	}
	// Slice b starts inside a and outlives it on the same track.
	straddle := `{"traceEvents":[
		{"name":"a","ph":"X","ts":1,"dur":20,"pid":1,"tid":1},
		{"name":"b","ph":"X","ts":4,"dur":19,"pid":1,"tid":1}]}`
	if _, err := ValidateChromeTrace(strings.NewReader(straddle)); err == nil || !strings.Contains(err.Error(), "rule nest") {
		t.Errorf("straddling slices: want rule nest, got %v", err)
	}
	// The same slices nest or sit apart legally: on separate tracks, one
	// inside the other, or back to back.
	for _, body := range []string{
		`{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":20,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":4,"dur":19,"pid":1,"tid":2}]}`,
		`{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":20,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":4,"dur":17,"pid":1,"tid":1},
			{"name":"c","ph":"X","ts":21,"dur":3,"pid":1,"tid":1}]}`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(body)); err != nil {
			t.Errorf("legal slices rejected: %v\n%s", err, body)
		}
	}
}

// TestChromeTraceTracksPerRun: runs whose tracers each number spans from
// 1 become one track apiece, and each span closes at its own run's end,
// not at a later run's end with the same id.
func TestChromeTraceTracksPerRun(t *testing.T) {
	var terminal Log
	for run := 0; run < 3; run++ {
		var staged Log
		tr := NewTracer(&staged)
		outer := tr.Start("exec")
		tr.Start("shadow-exec").End()
		tr.Start("report").End()
		outer.End()
		for _, e := range staged.Events() {
			e.Run = run
			terminal.Emit(e)
		}
	}
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, terminal.Events()); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("validate: %v\n%s", err, out.String())
	}
	var got chromeTrace
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, ce := range got.TraceEvents {
		want := uint64(1)
		if ce.Name == "exec" {
			want = 5
		}
		if ce.Dur != want || ce.TID != int(ce.TS-1)/6+1 { // six events a run
			t.Errorf("%s at %d: dur %d tid %d, want dur %d on its run's track", ce.Name, ce.TS, ce.Dur, ce.TID, want)
		}
		if spans[ce.Args["span"]] {
			t.Errorf("span id %s repeats within the pid", ce.Args["span"])
		}
		spans[ce.Args["span"]] = true
	}
	if len(got.TraceEvents) != 9 {
		t.Errorf("got %d slices, want 9", len(got.TraceEvents))
	}
}

// TestRingDropped: a bounded log counts what it evicts, and Total −
// Dropped == Len holds throughout.
func TestRingDropped(t *testing.T) {
	r := NewLog(2)
	if r.Dropped() != 0 {
		t.Fatal("fresh log reports drops")
	}
	for i := 0; i < 5; i++ {
		r.Emit(NewEvent(EvRunStart))
		if r.Total()-r.Dropped() != uint64(r.Len()) {
			t.Fatalf("after %d emits: total %d − dropped %d != len %d", i+1, r.Total(), r.Dropped(), r.Len())
		}
	}
	if r.Total() != 5 || r.Len() != 2 || r.Dropped() != 3 {
		t.Errorf("total/len/dropped = %d/%d/%d, want 5/2/3", r.Total(), r.Len(), r.Dropped())
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}

	var single Histogram
	observe(&single, 7)
	for _, q := range []float64{-0.5, 0, 0.5, 1, 1.5} {
		if got := single.Quantile(q); got != 7 {
			t.Errorf("single.Quantile(%v) = %d, want 7", q, got)
		}
	}

	var h Histogram
	for i := 0; i < 90; i++ {
		observe(&h, 1)
	}
	for i := 0; i < 10; i++ {
		observe(&h, 60)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want 1", got)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("Quantile(0.5) = %d, want 1", got)
	}
	if got := h.Quantile(1); got != 60 {
		t.Errorf("Quantile(1) = %d, want 60", got)
	}
	// Out-of-range q must clamp, not fall into the overflow bucket.
	if got := h.Quantile(7.5); got != 60 {
		t.Errorf("Quantile(7.5) = %d, want 60", got)
	}
}
