package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerSpans(t *testing.T) {
	var buf Buffer
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
	var buf Buffer
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
	var buf Buffer
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

	// Assign seqs the way a terminal sink would.
	events := make([]Event, 0, buf.Len())
	for i, e := range buf.Events() {
		e.Seq = uint64(i + 1)
		events = append(events, e)
	}

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, events); err != nil {
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
		var buf Buffer
		tr := NewTracer(&buf)
		for i := 0; i < 3; i++ {
			s := tr.Start("run")
			tr.Start("inner").End()
			s.End()
		}
		events := make([]Event, 0, buf.Len())
		for i, e := range buf.Events() {
			e.Seq = uint64(i + 1)
			events = append(events, e)
		}
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, events); err != nil {
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
}

func TestRingDropped(t *testing.T) {
	r := NewRing(2)
	if r.Dropped() != 0 {
		t.Fatal("fresh ring reports drops")
	}
	for i := 0; i < 5; i++ {
		r.Emit(NewEvent(EvRunStart))
	}
	if r.Total() != 5 || r.Len() != 2 || r.Dropped() != 3 {
		t.Errorf("total/len/dropped = %d/%d/%d, want 5/2/3", r.Total(), r.Len(), r.Dropped())
	}
	reg := NewRegistry()
	r.PublishMetrics(reg)
	if got := reg.Counter("pd_flight_dropped_total").Value(); got != 3 {
		t.Errorf("dropped metric = %d, want 3", got)
	}
	r.Reset()
	if r.Dropped() != 0 {
		t.Error("Reset did not clear dropped")
	}
	r.PublishMetrics(nil) // must not panic
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
