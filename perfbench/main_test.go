package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	pd "positdebug"
	"positdebug/internal/faultinject"
	"positdebug/internal/server"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

func TestDrawsArePureFunctionsOfSeed(t *testing.T) {
	n := len(serveCatalog())
	if !reflect.DeepEqual(drawKernels(7), drawKernels(7)) ||
		!reflect.DeepEqual(drawRequests(7, 3, n), drawRequests(7, 3, n)) ||
		!reflect.DeepEqual(drawCampaigns(7), drawCampaigns(7)) ||
		!reflect.DeepEqual(serveCatalog(), serveCatalog()) {
		t.Fatal("the same seed gave different draws")
	}
	if reflect.DeepEqual(drawKernels(7), drawKernels(8)) ||
		reflect.DeepEqual(drawRequests(7, 0, n), drawRequests(8, 0, n)) ||
		reflect.DeepEqual(drawRequests(7, 0, n), drawRequests(7, 1, n)) ||
		reflect.DeepEqual(drawCampaigns(7), drawCampaigns(8)) {
		t.Fatal("different seeds or passes gave the same draw")
	}
}

// Passes differ in order only, so every seed measures the same work.
func TestDrawCompositionIndependentOfSeed(t *testing.T) {
	count := func(reqs []serveRequest) map[serveRequest]int {
		m := map[serveRequest]int{}
		for _, r := range reqs {
			m[r]++
		}
		return m
	}
	n := len(serveCatalog())
	if n <= 64 {
		t.Fatalf("catalog has %d entries; it must exceed the server's 64-entry cache", n)
	}
	a, b := drawRequests(1, 0, n), drawRequests(2, 5, n)
	if !reflect.DeepEqual(count(a), count(b)) {
		t.Fatal("request mix composition depends on seed")
	}
	baseline := 0
	for _, r := range a {
		if r.Baseline {
			baseline++
		}
	}
	if baseline != len(a)/10 {
		t.Fatalf("%d of %d requests are baseline, want a tenth", baseline, len(a))
	}
	ka, kb := map[kernelSpec]bool{}, map[kernelSpec]bool{}
	for _, k := range drawKernels(1) {
		ka[k] = true
	}
	for _, k := range drawKernels(2) {
		kb[k] = true
	}
	if !reflect.DeepEqual(ka, kb) || len(ka) != 2*len(workloads.PolyBench()) {
		t.Fatal("kernels draw composition depends on seed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{50, 19, false}, {50, 20, true},
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
	} {
		v, ok := percentile(ramp(c.n), c.p)
		if ok != c.want {
			t.Errorf("p%v of %d samples: reported=%v, want %v", c.p, c.n, ok, c.want)
		}
		if c.want && samplesFor(c.p) != c.n {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, samplesFor(c.p), c.n)
		}
		beyond := 0
		for _, x := range ramp(c.n) {
			if x > v {
				beyond++
			}
		}
		if ok && beyond < minBeyond {
			t.Errorf("p%v of %d samples: %d beyond", c.p, c.n, beyond)
		}
	}
}

func testProgram(t *testing.T) program {
	t.Helper()
	p, err := catalogProgram(catalogEntry{Suite: "fp_quadratic"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCorruptedExpectedValueCountsAsError(t *testing.T) {
	p := testProgram(t)
	obs := kernelsPass([]program{p}, nil, nil)
	ref, err := referenceRun(p.Src, shadow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := &tally{}
	checkKernels(good, []program{p}, obs, []reference{ref})
	if good.attempted != 3 || good.failed != 0 {
		t.Fatalf("clean run: %d failed of %d (%v)", good.failed, good.attempted, good.examples)
	}
	for name, corrupt := range map[string]func(r *reference){
		"value":  func(r *reference) { r.value ^= 1 },
		"steps":  func(r *reference) { r.shadowSteps++ },
		"counts": func(r *reference) { r.counts = map[shadow.Kind]int{shadow.KindNaR: 1} },
	} {
		bad := ref
		corrupt(&bad)
		tl := &tally{}
		checkKernels(tl, []program{p}, obs, []reference{bad})
		if tl.failed == 0 || tl.attempted != 3 {
			t.Errorf("corrupted %s: %d failed of %d", name, tl.failed, tl.attempted)
		}
	}

	sref, err := referenceRun(p.Src, servedShadowConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp := server.RunResponse{Value: "0x0", Steps: sref.shadowSteps, Detections: map[string]int{"catastrophic-cancellation": 1}}
	sref.value = 0
	if err := serveMismatch(p, sref, false, resp); err != nil {
		t.Fatalf("matching response rejected: %v", err)
	}
	sref.value = 1
	if serveMismatch(p, sref, false, resp) == nil {
		t.Error("corrupted expected serve value accepted")
	}
	sref.value = 0
	resp.Detections = nil
	if serveMismatch(p, sref, false, resp) == nil {
		t.Error("suite program without its expected detection accepted")
	}

	cfgs := []faultinject.CampaignConfig{{Workload: "polybench/gemm"}}
	tl := &tally{}
	checkCampaigns(tl, cfgs, []campaignObs{{digest: [32]byte{1}}}, [][32]byte{{2}})
	if tl.failed != 1 {
		t.Error("campaign report differing from the reference accepted")
	}
}

func TestStepsIdenticalAcrossPasses(t *testing.T) {
	progs := []program{testProgram(t)}
	var steps []float64
	for pass := 0; pass < 2; pass++ {
		out := map[string]metric{}
		if err := probeRuns(progs, out); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, out["interp.steps"].Value)
	}
	if steps[0] == 0 || steps[0] != steps[1] {
		t.Fatalf("interp.steps per pass: %v", steps)
	}
	a, b := kernelsPass(progs, nil, nil), kernelsPass(progs, nil, nil)
	if a[0].shadow.Steps != b[0].shadow.Steps || a[0].base.Steps != b[0].base.Steps {
		t.Fatal("Exec step counts differ across passes")
	}
}

func TestPassLoopStopsOnPassBoundary(t *testing.T) {
	calls := 0
	n, err := passLoop(0, func(passes int) bool { return passes >= 3 }, func(int) error { calls++; return nil })
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("passes=%d calls=%d err=%v", n, calls, err)
	}
	calls = 0
	if n, _ := passLoop(time.Hour, func(int) bool { return true }, func(int) error { calls++; return errStop }); n != 0 || calls != 1 {
		t.Fatalf("error did not stop the loop: passes=%d calls=%d", n, calls)
	}
}

var errStop = errors.New("stop")

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	if r := got["root"]; r.SelfMS*1e6 != 100-50-10 {
		t.Fatalf("root self time %v ns, want 40", r.SelfMS*1e6)
	}
	if c := got["child"]; c.Count != 3 || c.SelfMS*1e6 != 90 {
		t.Fatalf("child aggregate %+v", c)
	}
}

// A reference burst that allocated would pay for the workload's garbage
// through GC assists, and its time would no longer track only the core.
// Warm, it allocates under once per burst on average: only when a
// collection has emptied the JSON encoder's buffer pool.
func TestReferenceBurstDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	refBurst()
	if n := testing.AllocsPerRun(20, refBurst); n >= 1 {
		t.Fatalf("refBurst allocates %v times per burst", n)
	}
}

func TestCalibratorScalesByNominalBurst(t *testing.T) {
	cal := startCalibrator()
	defer cal.close()
	f := cal.lap()
	if f <= 0 || cal.spent() <= 0 {
		t.Fatalf("scale %v after %v of bursts", f, cal.spent())
	}
}

func TestResultRecordsProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	prov := provenance{Commit: sourceCommit(), GoVersion: "go", GOMAXPROCS: 2, NProc: 2, Seed: 5, Command: []string{"perfbench"}}
	if err := writeResult(path, prov, result{Metrics: map[string]metric{}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Provenance map[string]any `json:"provenance"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"commit", "go_version", "gomaxprocs", "nproc", "seed", "command"} {
		if v, ok := got.Provenance[k]; !ok || v == "" {
			t.Errorf("provenance lacks %s", k)
		}
	}
}

// The benchmark's expected answers must hold on the unmodified code.
func TestServedSuiteProgramsReportExpectedKinds(t *testing.T) {
	for _, c := range serveCatalog() {
		if c.Suite == "" {
			continue
		}
		p, err := catalogProgram(c)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := pd.Compile(p.Src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Exec("main", servedOptions(nil)...)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, k := range p.Expect {
			found = found || res.Summary.Counts[k] > 0
		}
		if !found {
			t.Errorf("%s: served run reports %v, none of %v", p.Name, res.Summary.Counts, p.Expect)
		}
	}
}
