package positdebug

import (
	"errors"
	"strings"
	"testing"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// nopInjector is an interp.Injector that never corrupts anything.
type nopInjector struct{}

func (nopInjector) Reset() {}

func (nopInjector) Mutate(int32, ir.Op, ir.Type, uint64) (uint64, bool) { return 0, false }

func (nopInjector) Spent() bool { return false }

// TestExecOptionConflicts: incompatible option combinations fail loudly
// instead of silently picking a mode.
func TestExecOptionConflicts(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Option{
		{WithBaseline(), WithHerbgrind(256)},
		{WithBaseline(), WithShadow(shadow.DefaultConfig())},
		{WithHerbgrind(256), WithShadow(shadow.DefaultConfig())},
		{WithBaseline(), WithSkip("f")},
		{WithHerbgrind(256), WithInjector(nopInjector{})},
	}
	for i, opts := range bad {
		if _, err := prog.Exec("main", opts...); err == nil {
			t.Fatalf("conflict set %d accepted", i)
		}
	}
}

// TestExecTraceAndMetrics: one shadow run with a sink and registry
// attached produces run framing plus detections, and the registry picks
// up the op and detection counters.
func TestExecTraceAndMetrics(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	log := &obs.Log{}
	reg := obs.NewRegistry()
	if _, err := prog.Exec("main", WithTrace(log), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	events := log.Events()
	if len(events) < 3 {
		t.Fatalf("got %d events, want run-start + detections + run-end", len(events))
	}
	if events[0].Kind != obs.EvRunStart || events[0].Func != "main" {
		t.Fatalf("first event %+v, want run-start main", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != obs.EvRunEnd || last.Outcome != "ok" {
		t.Fatalf("last event %+v, want run-end ok", last)
	}
	sawDetect := false
	for _, e := range events {
		if e.Kind == obs.EvDetect {
			sawDetect = true
			if e.Detect == "" || e.Inst < 0 {
				t.Fatalf("malformed detection event %+v", e)
			}
		}
	}
	if !sawDetect {
		t.Fatal("fig2 must produce detection events")
	}
	if reg.Counter("pd_shadow_ops_total").Value() == 0 {
		t.Fatal("pd_shadow_ops_total not incremented")
	}
	if reg.Counter("pd_runs_total").Value() != 1 {
		t.Fatalf("pd_runs_total = %d, want 1", reg.Counter("pd_runs_total").Value())
	}
	kindName := shadow.KindCancellation.String()
	if reg.Counter(`pd_detections_total{kind="`+kindName+`"}`).Value() == 0 {
		t.Fatal("cancellation counter not incremented")
	}
}

// TestExecTrippedRunCountsOps: a run that trips its step budget still adds
// its shadowed ops to pd_shadow_ops_total, so the op counter never falls
// behind the error-bits histogram that counts one observation per checked
// op.
func TestExecTrippedRunCountsOps(t *testing.T) {
	k, _ := workloads.KernelByName("gemm")
	prog, err := Compile(k.Source(k.DefaultN / 4))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, err = prog.Exec("main", WithMetrics(reg), WithLimits(interp.Limits{MaxSteps: 5000}))
	var re *interp.ResourceExhausted
	if !errors.As(err, &re) || re.Resource != interp.ResSteps {
		t.Fatalf("want a step-budget trip, got %v", err)
	}
	ops := reg.Counter("pd_shadow_ops_total").Value()
	checked := reg.Histogram("pd_op_err_bits").Count()
	if ops == 0 || checked > ops {
		t.Fatalf("pd_shadow_ops_total = %d after a tripped run, pd_op_err_bits_count = %d", ops, checked)
	}
}

// TestExecDOTExport: the Summary of a traced run exports its DAGs as DOT
// that passes the structural checker, and as JSON.
func TestExecDOTExport(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Exec("main")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Summary.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckDOT(sb.String()); err != nil {
		t.Fatalf("exported DOT fails the checker: %v\n%s", err, sb.String())
	}
	j, err := res.Summary.GraphsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), `"nodes"`) {
		t.Fatalf("graphs JSON missing nodes:\n%s", j)
	}
}
