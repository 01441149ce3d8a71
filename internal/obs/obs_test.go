package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONLinesSeqAndValidate(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)

	e := NewEvent(EvRunStart)
	e.Func = "main"
	e.Precision = 256
	s.Emit(e)

	d := NewEvent(EvDetect)
	d.Detect = "cancellation"
	d.Inst = 7
	d.ErrBits = 48
	s.Emit(d)

	end := NewEvent(EvRunEnd)
	end.Outcome = "ok"
	end.Steps = 123
	s.Emit(end)

	if s.Err() != nil {
		t.Fatalf("sink error: %v", s.Err())
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	n, err := ValidateJSONLines(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n != 3 {
		t.Fatalf("validated %d events, want 3", n)
	}
}

func TestValidateJSONLinesRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
		want string
	}{
		{"unknown kind", `{"seq":1,"kind":"bogus","run":-1,"inst":-1}`, "unknown kind"},
		{"bad seq", `{"seq":2,"kind":"run-start","run":-1,"inst":-1,"func":"main"}`, "seq"},
		{"missing detect", `{"seq":1,"kind":"detection","run":-1,"inst":3}`, "missing detect"},
		{"unknown field", `{"seq":1,"kind":"run-start","run":-1,"inst":-1,"func":"main","bogus":1}`, "bogus"},
		{"empty", ``, "empty"},
	}
	for _, tc := range cases {
		_, err := ValidateJSONLines(strings.NewReader(tc.line))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateJSONLinesFlightLog: a flight log concatenates per-request
// ring dumps — the sequence restarts at each request-id change and, after
// eviction, a dump may start above 1. Both must validate; a seq break
// *within* one request's stream must not.
func TestValidateJSONLinesFlightLog(t *testing.T) {
	ok := strings.Join([]string{
		`{"seq":1,"kind":"run-start","run":-1,"inst":-1,"func":"main","req":"r1"}`,
		`{"seq":2,"kind":"run-end","run":-1,"inst":-1,"outcome":"ok","req":"r1"}`,
		`{"seq":4,"kind":"run-start","run":-1,"inst":-1,"func":"main","req":"r2"}`, // evicted head
		`{"seq":5,"kind":"run-end","run":-1,"inst":-1,"outcome":"ok","req":"r2"}`,
	}, "\n")
	if n, err := ValidateJSONLines(strings.NewReader(ok)); err != nil || n != 4 {
		t.Fatalf("flight log rejected: n=%d err=%v", n, err)
	}
	bad := strings.Join([]string{
		`{"seq":1,"kind":"run-start","run":-1,"inst":-1,"func":"main","req":"r1"}`,
		`{"seq":3,"kind":"run-end","run":-1,"inst":-1,"outcome":"ok","req":"r1"}`,
	}, "\n")
	if _, err := ValidateJSONLines(strings.NewReader(bad)); err == nil {
		t.Fatal("in-stream seq gap accepted")
	}
	// Unstamped traces still must start at 1.
	if _, err := ValidateJSONLines(strings.NewReader(
		`{"seq":2,"kind":"run-start","run":-1,"inst":-1,"func":"main"}`)); err == nil {
		t.Fatal("unstamped trace starting at 2 accepted")
	}
}

// TestRingEviction: a bounded log is a ring — it keeps the newest events,
// oldest first, numbered by their lifetime position. An unbounded log
// keeps and numbers everything.
func TestRingEviction(t *testing.T) {
	r := NewLog(3)
	var all Log
	for i := 0; i < 5; i++ {
		e := NewEvent(EvDetect)
		e.Inst = int32(i)
		r.Emit(e)
		all.Emit(e)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	evs := r.Events()
	for i, want := range []int32{2, 3, 4} {
		if evs[i].Inst != want {
			t.Fatalf("events[%d].Inst = %d, want %d", i, evs[i].Inst, want)
		}
	}
	// Seq reflects lifetime position, not retained position.
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("seqs = %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if all.Len() != 5 || all.Dropped() != 0 {
		t.Fatalf("unbounded log: len %d dropped %d, want 5 and 0", all.Len(), all.Dropped())
	}
	for i, e := range all.Events() {
		if e.Seq != uint64(i+1) || e.Inst != int32(i) {
			t.Fatalf("unbounded events[%d] = seq %d inst %d", i, e.Seq, e.Inst)
		}
	}
}

// observe folds vs into h the way a run's counts reach the registry.
func observe(h *Histogram, vs ...int) {
	var c HistCounts
	for _, v := range vs {
		c.Observe(v)
	}
	h.Fold(&c)
}

// TestHistogramFold: folding run-local counts adds them bucket by bucket,
// clamps like the buckets do, and empties the counts.
func TestHistogramFold(t *testing.T) {
	var h Histogram
	var c HistCounts
	for _, v := range []int{-3, 0, 5, 5, 64, 65, 1000} {
		c.Observe(v)
	}
	h.Fold(&c)
	h.Fold(&c) // empty now: adds nothing
	observe(&h, 5)
	want := map[int]int64{0: 2, 5: 3, 64: 1, HistMax + 1: 2}
	for v := 0; v <= HistMax+1; v++ {
		if got := h.Bucket(v); got != want[v] {
			t.Errorf("bucket %d = %d, want %d", v, got, want[v])
		}
	}
	if h.Count() != 8 || h.Sum() != 1144 { // -3 counts as 0
		t.Errorf("count %d sum %d, want 8 and 1144", h.Count(), h.Sum())
	}
	if c != (HistCounts{}) {
		t.Error("Fold left counts behind")
	}
}

func TestRegistryPromDump(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pd_detections_total{kind="nar"}`).Add(2)
	r.Counter(`pd_detections_total{kind="cancellation"}`).Inc()
	r.Counter("pd_shadow_ops_total").Add(100)
	r.Gauge("pd_precision_bits").Set(256)
	h := r.Histogram("pd_op_err_bits")
	observe(h, 10, 10, 64, 999) // 999 overflows

	out := r.String()
	for _, want := range []string{
		"# TYPE pd_detections_total counter",
		`pd_detections_total{kind="cancellation"} 1`,
		`pd_detections_total{kind="nar"} 2`,
		"pd_shadow_ops_total 100",
		"# TYPE pd_precision_bits gauge",
		"pd_precision_bits 256",
		"# TYPE pd_op_err_bits histogram",
		`pd_op_err_bits_bucket{le="10"} 2`,
		`pd_op_err_bits_bucket{le="64"} 3`,
		`pd_op_err_bits_bucket{le="+Inf"} 4`,
		"pd_op_err_bits_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two dumps identical.
	if out != r.String() {
		t.Fatalf("prom dump not deterministic")
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(1.0); got != HistMax+1 {
		t.Fatalf("p100 = %d, want overflow bucket %d", got, HistMax+1)
	}
}

func TestLabeledHistogramProm(t *testing.T) {
	r := NewRegistry()
	observe(r.Histogram(`pd_inst_err_bits{inst="7"}`), 3)
	out := r.String()
	for _, want := range []string{
		`pd_inst_err_bits_bucket{inst="7",le="3"} 1`,
		`pd_inst_err_bits_sum{inst="7"} 3`,
		`pd_inst_err_bits_count{inst="7"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
}

func TestGraphDOT(t *testing.T) {
	g := Graph{
		Name:  "dag",
		Label: "cancellation at foo.pcl:3:7 (48 bits)",
		Nodes: []Node{
			{ID: 1, Inst: 5, Op: "sub.p32", Pos: "foo.pcl:3:7", Program: "1.0", Shadow: "0.9", ErrBits: 48, Root: true},
			{ID: 2, Inst: 3, Op: "mul.p32", ErrBits: 2},
		},
		Edges: []Edge{{From: 1, To: 2}},
	}
	dot := g.DOT()
	if err := CheckDOT(dot); err != nil {
		t.Fatalf("CheckDOT: %v\n%s", err, dot)
	}
	for _, want := range []string{"digraph", "n1 ->", "sub.p32", "fillcolor"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if dot != g.DOT() {
		t.Fatalf("DOT not deterministic")
	}

	var all bytes.Buffer
	if err := WriteDOTAll(&all, "report", []Graph{g, g}); err != nil {
		t.Fatalf("WriteDOTAll: %v", err)
	}
	if err := CheckDOT(all.String()); err != nil {
		t.Fatalf("CheckDOT(all): %v\n%s", err, all.String())
	}
	if !strings.Contains(all.String(), "cluster_1") {
		t.Fatalf("missing cluster:\n%s", all.String())
	}
}

func TestCheckDOTRejects(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no header", "graph g { }"},
		{"unclosed brace", "digraph g {"},
		{"stray close", "digraph g { } }"},
		{"unbalanced quote", "digraph g {\n  n1 [label=\"oops];\n}"},
	}
	for _, tc := range cases {
		if err := CheckDOT(tc.src); err == nil {
			t.Errorf("%s: CheckDOT accepted invalid input", tc.name)
		}
	}
}
