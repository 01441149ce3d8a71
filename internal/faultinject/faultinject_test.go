package faultinject

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	positdebug "positdebug"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/shadow"
)

const accumSrc = `
var arr: [16]p32;

func main(): p32 {
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < 16; i += 1) {
		arr[i] = 0.125;
	}
	for (var it: i64 = 0; it < 24; it += 1) {
		for (var i: i64 = 0; i < 16; i += 1) {
			s = s + arr[i] * 1.0625;
		}
	}
	return s;
}
`

func compileAccum(t *testing.T) *positdebug.Program {
	t.Helper()
	prog, err := positdebug.Compile(accumSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func injectedRun(t *testing.T, prog *positdebug.Program, model Model, seed int64, budget int64) (*positdebug.Result, *Injector) {
	t.Helper()
	cfg := shadow.DefaultConfig()
	cfg.MaxReports = 0
	cfg.Tracing = false
	cfg.MaxShadowBytes = budget
	inj := NewInjector(model, seed)
	res, err := prog.Exec("main", positdebug.WithShadow(cfg),
		positdebug.WithLimits(interp.Limits{Timeout: 10 * time.Second}),
		positdebug.WithInjector(inj))
	if err != nil {
		t.Fatalf("injected run: %v", err)
	}
	return res, inj
}

// TestInjectorDeterminism: the same seed and model must replay a
// byte-identical fault schedule and produce a bit-identical result,
// across fault kinds and op-class restrictions.
func TestInjectorDeterminism(t *testing.T) {
	prog := compileAccum(t)
	cases := []struct {
		name  string
		model Model
		seed  int64
	}{
		{"bitflip-rate", Model{Kind: BitFlip, Rate: 0.01}, 7},
		{"bitflip-occurrence", Model{Kind: BitFlip, Occurrence: 40}, 7},
		{"multiflip", Model{Kind: MultiBitFlip, FlipBits: 3, Rate: 0.02}, 11},
		{"nar", Model{Kind: StuckNaR, Occurrence: 100}, 3},
		{"saturate", Model{Kind: Saturate, Rate: 0.005}, 99},
		{"arith-only", Model{Kind: BitFlip, Ops: ClassArith, Rate: 0.01}, 21},
		{"store-only", Model{Kind: BitFlip, Ops: ClassStore, Rate: 0.05}, 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res1, inj1 := injectedRun(t, prog, tc.model, tc.seed, 0)
			res2, inj2 := injectedRun(t, prog, tc.model, tc.seed, 0)
			if !reflect.DeepEqual(inj1.Schedule(), inj2.Schedule()) {
				t.Fatalf("schedules differ:\n%v\nvs\n%v", inj1.Schedule(), inj2.Schedule())
			}
			if res1.Value != res2.Value {
				t.Fatalf("results differ: %#x vs %#x", res1.Value, res2.Value)
			}
			if res1.Summary.String() != res2.Summary.String() {
				t.Fatalf("oracle summaries differ:\n%s\nvs\n%s", res1.Summary, res2.Summary)
			}
			if inj1.Candidates() != inj2.Candidates() {
				t.Fatalf("candidate counts differ: %d vs %d", inj1.Candidates(), inj2.Candidates())
			}
		})
	}
}

// TestInjectorSeedsDiffer: different seeds must (for a random-site model)
// produce different schedules — the PRNG is actually wired in.
func TestInjectorSeedsDiffer(t *testing.T) {
	prog := compileAccum(t)
	model := Model{Kind: BitFlip, Rate: 0.02}
	_, inj1 := injectedRun(t, prog, model, 1, 0)
	_, inj2 := injectedRun(t, prog, model, 2, 0)
	if reflect.DeepEqual(inj1.Schedule(), inj2.Schedule()) {
		t.Fatalf("seeds 1 and 2 produced identical non-trivial schedules (len %d)", len(inj1.Schedule()))
	}
}

// TestInjectorSpent drives Mutate by hand: an injector is spent exactly
// when it can corrupt nothing more this run, and a counting or uncapped
// rate-mode injector never is, since the machine stops consulting a spent
// injector for the rest of the run.
func TestInjectorSpent(t *testing.T) {
	counter := NewInjector(Model{Occurrence: 1}, 0)
	counter.CountOnly = true
	for _, tc := range []struct {
		name  string
		inj   *Injector
		spent []bool // Spent after each of five eligible events
	}{
		{"occurrence", NewInjector(Model{Occurrence: 3}, 1), []bool{false, false, true, true, true}},
		{"rate capped", NewInjector(Model{Rate: 1, MaxInjections: 2}, 1), []bool{false, true, true, true, true}},
		{"rate uncapped", NewInjector(Model{Rate: 1}, 1), []bool{false, false, false, false, false}},
		{"count only", counter, []bool{false, false, false, false, false}},
	} {
		for i, want := range tc.spent {
			tc.inj.Mutate(1, ir.OpShadowBin, ir.F64, 0x3ff0000000000000)
			if got := tc.inj.Spent(); got != want {
				t.Errorf("%s: Spent after event %d = %v, want %v", tc.name, i+1, got, want)
			}
		}
		tc.inj.Reset()
		if tc.inj.Spent() {
			t.Errorf("%s: spent after Reset", tc.name)
		}
	}
}

// TestCountOnly: the calibration pass counts eligible events without
// corrupting anything, and the count matches what a real run sees.
func TestCountOnly(t *testing.T) {
	prog := compileAccum(t)
	counter := NewInjector(Model{Kind: BitFlip, Rate: 1}, 0)
	counter.CountOnly = true
	cfg := shadow.DefaultConfig()
	cfg.MaxReports = 0
	res, err := prog.Exec("main", positdebug.WithShadow(cfg),
		positdebug.WithInjector(counter))
	if err != nil {
		t.Fatalf("count-only run: %v", err)
	}
	if len(counter.Schedule()) != 0 {
		t.Fatalf("count-only run injected %d faults", len(counter.Schedule()))
	}
	if counter.Candidates() == 0 {
		t.Fatal("count-only run saw no eligible events")
	}
	base, err := prog.Exec("main", positdebug.WithShadow(cfg))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if res.Value != base.Value {
		t.Fatalf("count-only run changed the result: %#x vs %#x", res.Value, base.Value)
	}
}

// TestOccurrenceInjectsOnce: occurrence mode hits exactly the k-th
// eligible event, once.
func TestOccurrenceInjectsOnce(t *testing.T) {
	prog := compileAccum(t)
	_, inj := injectedRun(t, prog, Model{Kind: BitFlip, Occurrence: 17, BitPos: 3}, 5, 0)
	sched := inj.Schedule()
	if len(sched) != 1 {
		t.Fatalf("want 1 injection, got %d", len(sched))
	}
	if sched[0].Seq != 17 {
		t.Fatalf("want injection at event 17, got %d", sched[0].Seq)
	}
	if sched[0].Bit != 3 {
		t.Fatalf("want pinned bit 3, got %d", sched[0].Bit)
	}
	if sched[0].After != sched[0].Before^(1<<3) {
		t.Fatalf("bit 3 not flipped: before %#x after %#x", sched[0].Before, sched[0].After)
	}
}

// TestMaxInjectionsCap: the per-run cap is honored in rate mode.
func TestMaxInjectionsCap(t *testing.T) {
	prog := compileAccum(t)
	_, inj := injectedRun(t, prog, Model{Kind: BitFlip, Rate: 1, MaxInjections: 4}, 5, 0)
	if got := len(inj.Schedule()); got != 4 {
		t.Fatalf("want 4 injections, got %d", got)
	}
}

// TestCorruptions: each fault kind produces the documented bit pattern.
func TestCorruptions(t *testing.T) {
	if got := narBits(ir.P32); got != 1<<31 {
		t.Errorf("posit NaR: got %#x", got)
	}
	if got := narBits(ir.F64); !isNaN64(got) {
		t.Errorf("float64 NaN: got %#x", got)
	}
	// Saturation keeps sign: a negative posit saturates to -maxpos.
	cfg := ir.P32.PositConfig()
	negOne := uint64(0xC0000000) // p32 for -1.0 (two's complement of 0x40000000)
	maxpos := uint64(cfg.MaxPos())
	if sat, want := saturateBits(ir.P32, negOne), (-maxpos)&uint64(cfg.Mask()); sat != want {
		t.Errorf("negative saturation: got %#x want %#x", sat, want)
	}
	if pos := saturateBits(ir.P32, uint64(0x40000000)); pos != maxpos {
		t.Errorf("positive saturation: got %#x want %#x", pos, maxpos)
	}
}

func isNaN64(bits uint64) bool {
	exp := bits >> 52 & 0x7ff
	return exp == 0x7ff && bits&((1<<52)-1) != 0
}

const callSrc = `
var arr: [8]p32;

func scale(x: p32): p32 {
	return x * 3.0;
}

func main(): p32 {
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < 8; i += 1) {
		arr[i] = 1.5;
	}
	for (var i: i64 = 0; i < 8; i += 1) {
		s = s + scale(arr[i]);
	}
	return s;
}
`

// TestInjectionVisibleToOracle: load-, store- and call-class faults reach
// hooks that propagate metadata instead of recomputing it, so without the
// InjectionObserver protocol the runtime would mistake them for
// uninstrumented writes and re-seed its clean shadow from the corrupted
// value — making every such fault undetectable by construction. A forced
// NaR at each class must instead be flagged by the oracle, with no
// spurious uninstrumented-write count.
func TestInjectionVisibleToOracle(t *testing.T) {
	prog, err := positdebug.Compile(callSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := shadow.DefaultConfig()
	cfg.Tracing = false
	base, err := prog.Exec("main", positdebug.WithShadow(cfg))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	detectableKinds := []shadow.Kind{
		shadow.KindCancellation, shadow.KindPrecisionLoss, shadow.KindSaturation,
		shadow.KindNaR, shadow.KindBranchFlip, shadow.KindWrongCast,
		shadow.KindHighError, shadow.KindWrongOutput,
	}
	for _, tc := range []struct {
		name string
		ops  OpClass
	}{
		{"load", ClassLoad}, {"store", ClassStore}, {"call", ClassCall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := Model{Kind: StuckNaR, Ops: tc.ops, Occurrence: 2, MaxInjections: 1}
			res, inj := injectedRun(t, prog, model, 1, 0)
			if got := len(inj.Schedule()); got != 1 {
				t.Fatalf("want 1 injection, got %d", got)
			}
			if res.Summary.UninstrumentedWrites != base.Summary.UninstrumentedWrites {
				t.Fatalf("injection misread as uninstrumented writes: %d (baseline %d)",
					res.Summary.UninstrumentedWrites, base.Summary.UninstrumentedWrites)
			}
			newDetections := 0
			for _, k := range detectableKinds {
				if res.Summary.Counts[k] > base.Summary.Counts[k] {
					newDetections++
				}
			}
			if newDetections == 0 {
				t.Fatalf("NaR %s-class fault invisible to the oracle:\n%s", tc.name, res.Summary)
			}
		})
	}
}

// TestDeviationBitsNonFinite: non-finite golden/faulty pairs only count as
// equivalent when they are the same exception; +Inf vs −Inf or NaN vs Inf
// is maximal deviation, not a masked outcome.
func TestDeviationBitsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		golden, faulty float64
		want           int
	}{
		{inf, inf, 0},
		{-inf, -inf, 0},
		{nan, nan, 0},
		{inf, -inf, 64},
		{-inf, inf, 64},
		{nan, inf, 64},
		{inf, nan, 64},
		{1.0, nan, 64},
		{inf, 1.0, 64},
	}
	for _, tc := range cases {
		if got := deviationBits(ir.F64, tc.golden, tc.faulty); got != tc.want {
			t.Errorf("deviationBits(%v, %v) = %d, want %d", tc.golden, tc.faulty, got, tc.want)
		}
	}
}

// TestMaskedBitsSentinel: 0 keeps the documented default of 10 and −1
// demands an exact output match (threshold 0).
func TestMaskedBitsSentinel(t *testing.T) {
	if got := (CampaignConfig{}).withDefaults().MaskedBits; got != 10 {
		t.Errorf("default MaskedBits = %d, want 10", got)
	}
	if got := (CampaignConfig{MaskedBits: -1}).withDefaults().MaskedBits; got != 0 {
		t.Errorf("exact-match MaskedBits = %d, want 0", got)
	}
	if got := (CampaignConfig{MaskedBits: 3}).withDefaults().MaskedBits; got != 3 {
		t.Errorf("explicit MaskedBits = %d, want 3", got)
	}
}

// TestParsers: name→kind and name→class round trips, including errors.
func TestParsers(t *testing.T) {
	for i, name := range []string{"bitflip", "multiflip", "nar", "saturate"} {
		k, err := KindByName(name)
		if err != nil || k != Kind(i) {
			t.Errorf("KindByName(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := KindByName("gamma-ray"); err == nil {
		t.Error("KindByName accepted junk")
	}
	c, err := ClassByName("arith,load")
	if err != nil || c != ClassArith|ClassLoad {
		t.Errorf("ClassByName(arith,load) = %v, %v", c, err)
	}
	if got, _ := ClassByName(""); got != ClassAll {
		t.Errorf("empty class list should mean all, got %v", got)
	}
	if _, err := ClassByName("cosmic"); err == nil {
		t.Error("ClassByName accepted junk")
	}
}

// TestCampaignDeterministicReport: the whole campaign — golden run,
// calibration, every injected run, classification — serializes to
// byte-identical JSON across two invocations.
func TestCampaignDeterministicReport(t *testing.T) {
	cfg := CampaignConfig{
		Workload: "polybench/gemm", N: 8, Arch: "both", Runs: 12, Seed: 42,
		KeepSchedules: true,
	}
	rep1, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign 1: %v", err)
	}
	rep2, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign 2: %v", err)
	}
	j1, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("campaign reports differ:\n%s\nvs\n%s", j1, j2)
	}
}

// TestCampaignClassification: every run lands in exactly one outcome
// bucket, totals add up, and with a whole-campaign single-fault sweep at
// least one fault is visible (not everything masked).
func TestCampaignClassification(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Workload: "polybench/gemm", N: 8, Runs: 25, Seed: 3,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	a := rep.Arches[0]
	tot := a.Totals
	if got := tot.Masked + tot.SDC + tot.Detected + tot.Crashed + tot.Hung; got != tot.Runs || tot.Runs != 25 {
		t.Fatalf("outcomes don't partition the runs: %+v", tot)
	}
	if tot.InjectedRuns != 25 {
		t.Fatalf("single-fault sweep should inject in every run, got %d/25", tot.InjectedRuns)
	}
	if tot.Masked == tot.Runs {
		t.Fatal("every fault was masked; the injector is probably not wired in")
	}
	valid := map[Outcome]bool{OutcomeMasked: true, OutcomeSDC: true, OutcomeDetected: true, OutcomeCrashed: true, OutcomeHung: true}
	for _, rr := range a.Results {
		if !valid[rr.Outcome] {
			t.Fatalf("run %d has invalid outcome %q", rr.Run, rr.Outcome)
		}
		if rr.Injected != 1 {
			t.Fatalf("run %d injected %d faults, want 1", rr.Run, rr.Injected)
		}
	}
}

// TestCampaignStepBudget: the per-run step budget is enforced — a starved
// golden run fails the campaign with a structured resource error, and a
// generous budget passes.
func TestCampaignStepBudget(t *testing.T) {
	_, err := RunCampaign(CampaignConfig{
		Workload: "polybench/gemm", N: 8, Runs: 1, Seed: 1, MaxSteps: 2000,
	})
	if err == nil {
		t.Fatal("starved golden run should fail the campaign")
	}
	var re *interp.ResourceExhausted
	if !asResource(err, &re) || re.Resource != interp.ResSteps {
		t.Fatalf("want a steps ResourceExhausted, got %v", err)
	}
	if _, err := RunCampaign(CampaignConfig{
		Workload: "polybench/gemm", N: 8, Runs: 1, Seed: 1,
	}); err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
}

// TestCampaignDegradation: a shadow-memory budget between the 128-bit and
// 256-bit footprints degrades every run one precision step, flags it, and
// keeps the fault schedule identical to the unbudgeted campaign.
func TestCampaignDegradation(t *testing.T) {
	base := CampaignConfig{
		Workload: "polybench/gemm", N: 8, Runs: 6, Seed: 42, KeepSchedules: true,
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatalf("unbudgeted campaign: %v", err)
	}
	budgeted := base
	budgeted.MaxShadowBytes = 1_000_000 // gemm n=8: two 4096-entry pages; 256-bit needs ~1.44MB, 128-bit ~918KB
	deg, err := RunCampaign(budgeted)
	if err != nil {
		t.Fatalf("budgeted campaign: %v", err)
	}
	fa, da := full.Arches[0], deg.Arches[0]
	if da.Totals.Degraded != da.Totals.Runs {
		t.Fatalf("want every run degraded, got %d/%d", da.Totals.Degraded, da.Totals.Runs)
	}
	for i, rr := range da.Results {
		if !rr.Degraded || rr.Precision != 128 {
			t.Fatalf("run %d: degraded=%v precision=%d, want true/128", i, rr.Degraded, rr.Precision)
		}
		if !reflect.DeepEqual(rr.Schedule, fa.Results[i].Schedule) {
			t.Fatalf("run %d: degradation changed the fault schedule:\n%v\nvs\n%v",
				i, rr.Schedule, fa.Results[i].Schedule)
		}
	}
	if fa.Results[0].Degraded {
		t.Fatal("unbudgeted run reported degraded")
	}
}

// TestResolveWorkload: group prefixes, bare names, suite programs, and
// junk.
func TestResolveWorkload(t *testing.T) {
	for _, spec := range []string{"polybench/gemm", "gemm", "spec/spec_art", "suite/fp_quadratic"} {
		if _, _, err := ResolveWorkload(spec, 0); err != nil {
			t.Errorf("ResolveWorkload(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"polybench/nope", "nope", "weird/gemm"} {
		if _, _, err := ResolveWorkload(spec, 0); err == nil {
			t.Errorf("ResolveWorkload(%q) accepted junk", spec)
		}
	}
}
