package shadow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/lang"
	"positdebug/internal/posit"
)

// buildPipeline compiles and instruments a source, returning a runtime and
// a machine wired together.
func buildPipeline(tb testing.TB, src string, cfg Config) (*Runtime, *interp.Machine) {
	tb.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		tb.Fatalf("check: %v", err)
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	inst := instrument.Instrument(mod, instrument.Options{})
	if err := inst.Verify(); err != nil {
		tb.Fatalf("verify instrumented: %v", err)
	}
	rt, err := New(inst, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m := interp.New(inst)
	m.Hooks = rt
	return rt, m
}

// pipeline compiles, instruments and runs a source under the shadow
// runtime on every backend, returning the first backend's (the
// tree-walker's) result, printed output and summary; it fails if any
// backend disagrees on one of them.
func pipeline(t *testing.T, src string, cfg Config, fn string, args ...uint64) (uint64, string, *Summary) {
	t.Helper()
	var v0 uint64
	var out0 string
	var sum0 *Summary
	var json0 []byte
	for i, k := range backend.Kinds() {
		rt, m := buildPipeline(t, src, cfg)
		m.Backend = k
		var out bytes.Buffer
		m.Out = &out
		v, err := m.Run(fn, args...)
		if err != nil {
			t.Fatalf("run on %v: %v", k, err)
		}
		sum := rt.Summary()
		js, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			v0, out0, sum0, json0 = v, out.String(), sum, js
		} else if v != v0 || out.String() != out0 || !bytes.Equal(js, json0) {
			t.Fatalf("%v diverged from %v:\n  %#x %q %s\n  %#x %q %s",
				k, backend.Kinds()[0], v, out.String(), js, v0, out0, json0)
		}
	}
	return v0, out0, sum0
}

const rootCountSrc = `
func rootcount(a: p32, b: p32, c: p32): i64 {
	var t1: p32 = b * b;
	var t2: p32 = 4.0 * a * c;
	var t3: p32 = t1 - t2;
	if (t3 > 0.0) { return 2; }
	if (t3 == 0.0) { return 1; }
	return 0;
}
func main(): i64 {
	var a: p32 = 18309067625725952.0;
	var b: p32 = 3246642954240.0;
	var c: p32 = 143923904.0;
	return rootcount(a, b, c);
}
`

// TestFig2Detection reproduces the paper's headline example end to end:
// the posit program returns 1 root while shadow execution knows there are
// 2; PositDebug must report the catastrophic cancellation and the branch
// flip, with a DAG rooted at the subtraction (Figure 5).
func TestFig2Detection(t *testing.T) {
	v, _, sum := pipeline(t, rootCountSrc, DefaultConfig(), "main")
	if int64(v) != 1 {
		t.Fatalf("program result = %d, want 1 (the wrong-but-actual result)", int64(v))
	}
	if !sum.Has(KindCancellation) {
		t.Fatalf("catastrophic cancellation not detected: %s", sum)
	}
	if sum.BranchFlips == 0 {
		t.Fatalf("branch flip not detected: %s", sum)
	}
	var cc *Report
	for _, r := range sum.Reports {
		if r.Kind == KindCancellation {
			cc = r
			break
		}
	}
	if cc == nil {
		t.Fatal("no cancellation report materialized")
	}
	if !strings.Contains(cc.Text, "-") {
		t.Fatalf("cancellation reported at %q, want the subtraction", cc.Text)
	}
	if cc.DAG == nil {
		t.Fatal("cancellation report carries no DAG")
	}
	// Figure 5's DAG has the subtraction, two multiplications, the
	// constant 4.0 and the loaded operands: at least 5 nodes.
	if cc.DAG.Size() < 5 {
		t.Fatalf("DAG too small (%d nodes):\n%s", cc.DAG.Size(), cc.DAG.Render())
	}
	rendered := cc.DAG.Render()
	for _, frag := range []string{"t1 - t2", "b * b", "4"} {
		if !strings.Contains(rendered, frag) {
			t.Fatalf("DAG missing %q:\n%s", frag, rendered)
		}
	}
}

// TestMetadataThroughMemory: the DAG must cross store/load pairs via the
// last-writer pointer in shadow memory (Figure 4's red arrows).
func TestMetadataThroughMemory(t *testing.T) {
	// big1 and big2 differ by 10^9 — representable in float64 (so the
	// shadow sees two values) but far below the ⟨32,2⟩ ULP at 1.8e16
	// (so the posits collapse to one value and the difference cancels).
	src := `
var buf: [4]p32;

func main(): i64 {
	var big1: p32 = 18309067625725952.0;
	var big2: p32 = 18309068625725952.0;
	buf[0] = big1 * 577.0;
	buf[1] = big2 * 577.0;
	var d: p32 = buf[0] - buf[1];
	print(d);
	return 0;
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if !sum.Has(KindCancellation) {
		t.Fatalf("expected cancellation through memory: %s", sum)
	}
	var cc *Report
	for _, r := range sum.Reports {
		if r.Kind == KindCancellation {
			cc = r
		}
	}
	rendered := cc.DAG.Render()
	// The multiplications happened before the stores; the DAG must reach
	// them through the loads.
	if !strings.Contains(rendered, "*") {
		t.Fatalf("DAG did not cross the store/load boundary:\n%s", rendered)
	}
}

// TestBranchFlipResync: after a flip the shadow must follow the program's
// values so subsequent detection stays meaningful (§3.1).
func TestBranchFlipResync(t *testing.T) {
	src := `
func main(): i64 {
	var a: p32 = 18309067625725952.0;
	var b: p32 = 3246642954240.0;
	var c: p32 = 143923904.0;
	var d: p32 = b * b - 4.0 * a * c;
	var flips: i64 = 0;
	if (d == 0.0) { flips = 1; }
	// After the flip, this comparison agrees between program and shadow
	// because the shadow was re-initialized from the program's values.
	if (d < 1.0) { flips = flips + 1; }
	return flips;
}
`
	v, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if int64(v) != 2 {
		t.Fatalf("result = %d, want 2", int64(v))
	}
	if sum.BranchFlips != 1 {
		t.Fatalf("branch flips = %d, want exactly 1 (resync must prevent the second)", sum.BranchFlips)
	}
}

// TestFlipReseedsCastResult: a cast's result still live in the frame when
// a branch flips is re-seeded from its program bits read as the cast's
// result type, so its shadow keeps the cast's value instead of the f64
// bits read as a posit.
func TestFlipReseedsCastResult(t *testing.T) {
	src := `
func main(): f64 {
	var x: p32 = 1.5;
	var d: f64 = f64(x);
	if (d > 1.0) { return d; }
	return 0.0;
}
`
	rt, _ := buildPipeline(t, src, DefaultConfig())
	castID, cmpID := int32(-1), int32(-1)
	for i := range rt.mod.Registry {
		switch rt.mod.Registry[i].Op {
		case ir.OpCast:
			castID = int32(i)
		case ir.OpCmp:
			cmpID = int32(i)
		}
	}
	if castID < 0 || cmpID < 0 {
		t.Fatal("program has no cast or no comparison")
	}
	rt.Reset()
	rt.EnterFunc(rt.mod.FuncByName("main"), nil)
	rt.Cast(castID, ir.P32, ir.F64, 1, 0, math.Float64bits(1.5), uint64(posit.Config32.FromFloat64(1.5)))
	// 2 > 1 in the shadow while the program took the other branch: a flip.
	rt.Cmp(cmpID, ir.CmpGt, ir.F64, 2, 3, math.Float64bits(2), math.Float64bits(1), false)
	if n := rt.Summary().BranchFlips; n != 1 {
		t.Fatalf("branch flips = %d, want 1", n)
	}
	if d := rt.temp(1); d.Undef || rt.orc.Float64(&d.Real) != 1.5 {
		t.Fatalf("cast result re-seeded to %v (undef %v), want 1.5", rt.orc.Float64(&d.Real), d.Undef)
	}
}

// TestWrongCast: posit→int casts that disagree with the shadow are
// reported (§3.4).
func TestWrongCast(t *testing.T) {
	// The difference cancels to 0 in posits while the shadow knows it is
	// ≈577e9; the integer cast therefore disagrees (0 vs a large count).
	src := `
func main(): i64 {
	var big1: p32 = 18309067625725952.0;
	var big2: p32 = 18309068625725952.0;
	var d: p32 = big1 * 577.0 - big2 * 577.0;
	return i64(d);
}
`
	v, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if int64(v) != 0 {
		t.Fatalf("program cast = %d, want 0", int64(v))
	}
	if !sum.Has(KindWrongCast) {
		t.Fatalf("wrong int cast not detected: %s", sum)
	}
}

// TestSaturation: operations that silently clamp to maxpos/minpos are
// reported (§2.2 "saturation with maxpos and minpos").
func TestSaturation(t *testing.T) {
	src := `
func main(): p32 {
	var x: p32 = 1000000000000000000.0;
	var y: p32 = x * x * x;
	return y;
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if !sum.Has(KindSaturation) {
		t.Fatalf("saturation not detected: %s", sum)
	}
}

// TestNaRDetection: producing NaR is reported as an exception.
func TestNaRDetection(t *testing.T) {
	src := `
func main(): p32 {
	var x: p32 = 2.0;
	var y: p32 = x - 3.0;
	return sqrt(y);
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if !sum.Has(KindNaR) {
		t.Fatalf("NaR not detected: %s", sum)
	}
}

// TestNaRNotRecountedAtCasts: a NaR carried through casts is the
// exception counted where it arose, not a new one at every conversion,
// even though its bits read as the destination type look finite.
func TestNaRNotRecountedAtCasts(t *testing.T) {
	src := `
func main(): f64 {
	var z: p32 = 0.0;
	var q: p32 = 1.0 / z;
	var d: f64 = f64(q);
	var e: p16 = p16(q);
	return d;
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if n := sum.Counts[KindNaR]; n != 1 {
		t.Fatalf("%v: %d, want 1: %s", KindNaR, n, sum)
	}
}

// TestPrecisionLoss: a division whose result needs far more regime bits
// than its operands loses fraction bits (§2.2, the quadratic-root case
// study's second root).
func TestPrecisionLoss(t *testing.T) {
	src := `
func main(): p32 {
	var num: p32 = 650000.0;
	var den: p32 = 0.0000000288;
	return num / den;
}
`
	cfg := DefaultConfig()
	cfg.PrecisionLossThreshold = 5
	_, _, sum := pipeline(t, src, cfg, "main")
	if !sum.Has(KindPrecisionLoss) {
		t.Fatalf("precision loss not detected: %s", sum)
	}
}

// TestWrongOutput: printed values with large error are flagged.
func TestWrongOutput(t *testing.T) {
	src := `
func main(): i64 {
	var a: p32 = 18309067625725952.0;
	var b: p32 = 3246642954240.0;
	var c: p32 = 143923904.0;
	print(b * b - 4.0 * a * c);
	return 0;
}
`
	_, out, sum := pipeline(t, rootCountSrc, DefaultConfig(), "main")
	_ = out
	_ = sum
	_, _, sum2 := pipeline(t, src, DefaultConfig(), "main")
	if !sum2.Has(KindWrongOutput) {
		t.Fatalf("wrong output not detected: %s", sum2)
	}
	if sum2.OutputMaxErrBits < 52 {
		t.Fatalf("output error bits = %d, want ≥ 52 (all fraction bits wrong)", sum2.OutputMaxErrBits)
	}
}

// TestQuireShadow: fused accumulation through the quire must agree with
// the shadow execution (the Simpson's-rule fix, §5.2.2).
func TestQuireShadow(t *testing.T) {
	// Terms and the total are exactly representable in ⟨32,2⟩, so the
	// fused sum must agree with the shadow to the last bit. (Outside the
	// golden zone, even a correctly rounded posit shows tens of bits of
	// double-ULP distance — the paper's §4.2 caveat — so this test stays
	// inside it.)
	src := `
var xs: [128]p32;

func main(): p32 {
	for (var i: i64 = 0; i < 128; i += 1) {
		xs[i] = p32(i) + 0.25;
	}
	qclear();
	for (var i: i64 = 0; i < 128; i += 1) {
		qadd(xs[i]);
	}
	return qround_p32();
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 5
	_, _, sum := pipeline(t, src, cfg, "main")
	if sum.Has(KindWrongOutput) {
		t.Fatalf("fused sum must match the shadow execution: %s", sum)
	}
	if sum.OutputMaxErrBits > 1 {
		t.Fatalf("fused sum output error = %d bits, want ≤ 1", sum.OutputMaxErrBits)
	}
}

// TestTracingOffStillDetects: disabling tracing removes DAGs but keeps
// detection (the Figure 8/10 configuration).
func TestTracingOffStillDetects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracing = false
	_, _, sum := pipeline(t, rootCountSrc, cfg, "main")
	if !sum.Has(KindCancellation) {
		t.Fatalf("cancellation must be detected without tracing: %s", sum)
	}
	for _, r := range sum.Reports {
		if r.DAG != nil {
			t.Fatal("no DAGs may be produced with tracing off")
		}
	}
}

// TestUninstrumentedInterfacing: a skipped (library-like) function writes
// program memory without updating shadow memory; the load-side program-
// value check must catch it and re-initialize (§4.1).
func TestUninstrumentedInterfacing(t *testing.T) {
	src := `
var g: p32;

func libwrite() {
	g = 42.5;
}
func main(): p32 {
	g = 1.0;
	libwrite();
	return g + 0.0;
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	inst := instrument.Instrument(mod, instrument.Options{Skip: map[string]bool{"libwrite": true}})
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		rt, err := New(inst, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(inst)
		m.Backend = k
		m.Hooks = rt
		v, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if posit.Config32.ToFloat64(posit.Bits(v)) != 42.5 {
			t.Fatalf("result = %v", posit.Config32.ToFloat64(posit.Bits(v)))
		}
		sum := rt.Summary()
		if sum.UninstrumentedWrites == 0 {
			t.Fatalf("uninstrumented write not detected: %s", sum)
		}
		// And no spurious error: the shadow adopted the program's value.
		if sum.OutputMaxErrBits > 1 {
			t.Fatalf("interfacing produced phantom error: %d bits", sum.OutputMaxErrBits)
		}
	})
}

// TestLockAndKeyAcrossFrames: a returned value's operand pointers refer to
// the dead callee frame; DAG traversal must stop at the invalid reference
// instead of following garbage (§3.2, and the single-instruction DAGs the
// paper observed in §5.1).
func TestLockAndKeyAcrossFrames(t *testing.T) {
	src := `
func cancel(): p32 {
	var big1: p32 = 10564069047231623.0;
	var big2: p32 = 10564049965177959.0;
	return (big1 - big2) - (big1 - big2 + 1000000000.0);
}
func main(): i64 {
	var r: p32 = cancel();
	// Force frame churn so the callee's shadow frame is recycled.
	var x: p32 = helper();
	print(r + x);
	return 0;
}
func helper(): p32 {
	var a: p32 = 1.5;
	var b: p32 = 2.5;
	return a * b;
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 10
	_, _, sum := pipeline(t, src, cfg, "main")
	for _, r := range sum.Reports {
		if r.DAG != nil {
			assertNoGarbage(t, r.DAG)
		}
	}
}

func assertNoGarbage(t *testing.T, n *DAGNode) {
	t.Helper()
	if n.Size() > 64 {
		t.Fatal("DAG exploded — stale pointers followed")
	}
}

// TestFPSanitizerMode: the identical runtime serves FP programs — an f32
// cancellation must be detected just like the posit one.
func TestFPSanitizerMode(t *testing.T) {
	src := `
func main(): f32 {
	var a: f32 = 16777216.0;
	var b: f32 = a + 1.0;   // rounds to a in f32
	var d: f32 = b - a;     // 0.0, exact answer 1.0
	print(d);
	return d;
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 10
	_, _, sum := pipeline(t, src, cfg, "main")
	if !sum.Has(KindCancellation) && !sum.Has(KindWrongOutput) {
		t.Fatalf("f32 cancellation not detected: %s", sum)
	}
}

// TestF64HighError: FP error accumulation through a load/store chain.
func TestF64HighError(t *testing.T) {
	src := `
func main(): f64 {
	var x: f64 = 1.0e16;
	var y: f64 = x + 1.0;
	var d: f64 = y - x;     // 2.0 or 0.0 depending on rounding; exact 1.0
	print(d);
	return d;
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 5
	_, _, sum := pipeline(t, src, cfg, "main")
	if !sum.Has(KindWrongOutput) && !sum.Has(KindCancellation) {
		t.Fatalf("f64 rounding not flagged at output: %s", sum)
	}
}

// TestSummaryString smoke-tests the reporting surface.
func TestSummaryString(t *testing.T) {
	_, _, sum := pipeline(t, rootCountSrc, DefaultConfig(), "main")
	s := sum.String()
	for _, frag := range []string{"catastrophic-cancellation", "branch-flip", "numeric ops"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, s)
		}
	}
	var withDAG *Report
	for _, r := range sum.Reports {
		if r.DAG != nil {
			withDAG = r
			break
		}
	}
	if withDAG == nil {
		t.Fatal("no report with DAG")
	}
	if !strings.Contains(withDAG.String(), "bits of error") {
		t.Fatal("report string")
	}
}

// TestShadowMemTrie exercises page allocation.
func TestShadowMemTrie(t *testing.T) {
	sm := newShadowMem(1 << 20)
	if sm.pageCount() != 0 {
		t.Fatal("pages must be lazy")
	}
	a := sm.get(5000)
	a.set = true
	if sm.get(5000) != a {
		t.Fatal("stable cells")
	}
	if sm.pageCount() != 1 {
		t.Fatal("one page")
	}
	sm.get(1 << 19)
	if sm.pageCount() != 2 {
		t.Fatal("two pages")
	}
	// Growth beyond the initial limit.
	sm.get(1 << 21)
	if sm.pageCount() != 3 {
		t.Fatal("grown")
	}
}

// TestOnErrorCallback: the debugger-style hook fires synchronously.
func TestOnErrorCallback(t *testing.T) {
	prog, _ := lang.Parse(rootCountSrc)
	chk, _ := lang.Check(prog)
	mod, _ := codegen.Compile(chk)
	inst := instrument.Instrument(mod, instrument.Options{})
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		cfg := DefaultConfig()
		fired := 0
		cfg.OnError = func(r *Report) { fired++ }
		rt, err := New(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(inst)
		m.Backend = k
		m.Hooks = rt
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		if fired == 0 {
			t.Fatal("OnError never fired")
		}
	})
}

var _ = ir.OpNop // keep import for helper usage in future edits

// TestFMAShadow: the fused operation is shadowed with a single rounding;
// a well-conditioned fused dot product shows no spurious detections.
func TestFMAShadow(t *testing.T) {
	src := `
var xs: [32]p32;
var ys: [32]p32;

func main(): p32 {
	for (var i: i64 = 0; i < 32; i += 1) {
		xs[i] = p32(i) + 0.5;
		ys[i] = 2.0;
	}
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < 32; i += 1) {
		s = fma(xs[i], ys[i], s);
	}
	return s;
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 5
	v, _, sum := pipeline(t, src, cfg, "main")
	// Σ 2(i+0.5) for i<32 = 1024, exactly representable.
	if posit.Config32.ToFloat64(posit.Bits(v)) != 1024 {
		t.Fatalf("fused dot = %v", posit.Config32.ToFloat64(posit.Bits(v)))
	}
	if sum.Has(KindWrongOutput) || sum.OutputMaxErrBits > 1 {
		t.Fatalf("exact fused dot flagged: %s", sum)
	}
	// The fma must appear in tracked ops.
	if sum.TotalOps == 0 {
		t.Fatal("no ops shadowed")
	}
}

// TestBreakOn: the conditional-breakpoint workflow — execution halts at
// the first report matching the predicate and Machine.Run surfaces it.
func TestBreakOn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BreakOn = func(r *Report) bool { return r.Kind == KindCancellation }
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		rt, m := buildPipeline(t, rootCountSrc, cfg)
		m.Backend = k
		_, err := m.Run("main")
		var stopped *interp.Stopped
		if !errorsAs(err, &stopped) {
			t.Fatalf("want *interp.Stopped, got %v", err)
		}
		rep, ok := stopped.Reason.(*Report)
		if !ok || rep.Kind != KindCancellation {
			t.Fatalf("breakpoint payload: %#v", stopped.Reason)
		}
		if rep.DAG == nil {
			t.Fatal("breakpoint report must carry the DAG")
		}
		// Branch flips after the break point must not have been reached.
		if rt.Summary().BranchFlips != 0 {
			t.Fatal("execution must have stopped before the comparison")
		}
	})
	// BreakOn sees every detection whatever MaxReports keeps: a predicate
	// matching the second of two cancellations stops there with no cap
	// and with a cap of one report. The cap only decides how many reports
	// the summary keeps.
	second := func(r *Report) bool { return r.Kind == KindCancellation && strings.HasPrefix(r.Pos, "6:") }
	for _, max := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.MaxReports = max
		cfg.BreakOn = second
		t.Run(fmt.Sprintf("MaxReports=%d", max), func(t *testing.T) {
			eachBackend(t, func(t *testing.T, k backend.Kind) {
				rt, m := buildPipeline(t, twoCancelSrc, cfg)
				m.Backend = k
				_, err := m.Run("main")
				var stopped *interp.Stopped
				if !errorsAs(err, &stopped) {
					t.Fatalf("want *interp.Stopped, got %v", err)
				}
				if rep, ok := stopped.Reason.(*Report); !ok || !second(rep) {
					t.Fatalf("breakpoint payload: %#v", stopped.Reason)
				}
				sum := rt.Summary()
				kept := 2
				if max == 1 {
					kept = 1
				}
				if sum.Counts[KindCancellation] != 2 || len(sum.Reports) != kept {
					t.Fatalf("%d cancellations and %d reports kept, want 2 and %d",
						sum.Counts[KindCancellation], len(sum.Reports), kept)
				}
			})
		})
	}
}

// twoCancelSrc cancels twice, on lines 5 and 6, with nothing else to
// report.
const twoCancelSrc = `
func main(): p32 {
	var big: p32 = 16777216.0;
	var one: p32 = 1.0;
	var x: p32 = (big + one) - big;
	var y: p32 = (big + one) - big;
	return one;
}
`

func errorsAs(err error, target **interp.Stopped) bool {
	s, ok := err.(*interp.Stopped)
	if ok {
		*target = s
	}
	return ok
}

// TestP16Programs: the runtime serves every posit width; a ⟨16,1⟩ program
// cancels far earlier than ⟨32,2⟩ would.
func TestP16Programs(t *testing.T) {
	src := `
func main(): p16 {
	var a: p16 = 3001.0;
	var b: p16 = 3002.0;   // rounds to the same p16 (11 frac bits at 2^11)
	var d: p16 = (a * 17.0) - (b * 17.0);
	print(d);
	return d;
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if !sum.Has(KindCancellation) && !sum.Has(KindHighError) {
		t.Fatalf("p16 cancellation not detected: %s", sum)
	}
}

// TestMixedWidthProgram: p16 and p32 values coexist; casts propagate
// metadata across widths.
func TestMixedWidthProgram(t *testing.T) {
	src := `
func main(): p32 {
	var narrow: p16 = 0.1;
	var wide: p32 = p32(narrow);   // carries p16's rounding error
	var ref: p32 = 0.1;
	var diff: p32 = (wide - ref) * 1000000.0;
	print(diff);
	return diff;
}
`
	cfg := DefaultConfig()
	cfg.OutputThreshold = 20
	_, out, sum := pipeline(t, src, cfg, "main")
	if strings.TrimSpace(out) == "0" {
		t.Fatal("p16 0.1 must differ from p32 0.1")
	}
	_ = sum
}

// TestDeepRecursionLockReuse: hundreds of nested frames exercise the lock
// stack's push/invalidate/reuse cycle; keys stay monotonic so references
// into dead frames always fail validation, and detection still works at
// the bottom of the stack.
func TestDeepRecursionLockReuse(t *testing.T) {
	src := `
func deep(n: i64, x: p32): p32 {
	if (n == 0) {
		var big1: p32 = 18309067625725952.0;
		var big2: p32 = 18309068625725952.0;
		return (big1 * 577.0 - big2 * 577.0) + x;
	}
	return deep(n - 1, x + 0.0078125) - 0.0078125;
}
func main(): p32 {
	var total: p32 = 0.0;
	for (var rep: i64 = 0; rep < 20; rep += 1) {
		total = deep(400, 1.0);
	}
	return total;
}
`
	_, _, sum := pipeline(t, src, DefaultConfig(), "main")
	if !sum.Has(KindCancellation) {
		t.Fatalf("cancellation at the bottom of 400 frames not detected: %s", sum)
	}
	for _, r := range sum.Reports {
		if r.DAG != nil && r.DAG.Size() > 200 {
			t.Fatalf("DAG exploded across frames: %d nodes", r.DAG.Size())
		}
	}
}

// TestConcurrentRuntimes: separate machines with separate runtimes are
// independent; running them concurrently must be race-free (the posit and
// bigfp layers are pure, all runtime state is per-instance).
func TestConcurrentRuntimes(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
						return
					}
				}()
				rt, m := buildPipeline(t, rootCountSrc, DefaultConfig())
				m.Backend = k
				for i := 0; i < 5; i++ {
					if _, err := m.Run("main"); err != nil {
						done <- err
						return
					}
					if !rt.Summary().Has(KindCancellation) {
						done <- fmt.Errorf("missing detection")
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestSummaryByFunctionAndWorst(t *testing.T) {
	_, _, sum := pipeline(t, rootCountSrc, DefaultConfig(), "main")
	by := sum.ByFunction()
	if len(by["rootcount"]) == 0 {
		t.Fatalf("reports must group under rootcount: %v", by)
	}
	w := sum.WorstReport()
	if w == nil || w.ErrBits < 60 {
		t.Fatalf("worst report: %+v", w)
	}
	empty := &Summary{}
	if empty.WorstReport() != nil {
		t.Fatal("empty summary has no worst report")
	}
}

// TestDAGRenderGolden pins the exact rendering of the Figure 5 DAG so
// report formatting stays stable.
func TestDAGRenderGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDAGDepth = 2
	_, _, sum := pipeline(t, rootCountSrc, cfg, "main")
	var cc *Report
	for _, r := range sum.Reports {
		if r.Kind == KindCancellation {
			cc = r
		}
	}
	if cc == nil {
		t.Fatal("no cancellation report")
	}
	got := cc.DAG.Render()
	// The multiplications' operands resolve through the caller's constant
	// metadata (the parameters were passed from main's literals and the
	// frame is still live) — the cross-frame propagation of Figure 4.
	want := `[63 bits] - t1 - t2 @5:19  program=0 shadow=2.405071383e+20
  └─ [44 bits] * b * b @3:18  program=1.0578100921628005e+25 shadow=1.054069047e+25
       └─ [0 bits] const 3246642954240.0 @12:15  program=3.24664295424e+12 shadow=3.246642954e+12
       └─ [0 bits] const 3246642954240.0 @12:15  program=3.24664295424e+12 shadow=3.246642954e+12
  └─ [44 bits] * 4.0 * a * c @4:24  program=1.0578100921628005e+25 shadow=1.054044997e+25
       └─ [0 bits] * 4.0 * a @4:20  program=7.32362705029038e+16 shadow=7.32362705e+16
       └─ [0 bits] const 143923904.0 @13:15  program=1.43923904e+08 shadow=143923904
`
	if got != want {
		t.Fatalf("DAG rendering changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestUnlimitedReports: MaxReports = 0 keeps every report.
func TestUnlimitedReports(t *testing.T) {
	src := `
func main(): p32 {
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < 50; i += 1) {
		var x: p32 = 1000000000000000000.0;
		s = x * x * x;
	}
	return s;
}
`
	cfg := DefaultConfig()
	cfg.MaxReports = 0
	_, _, sum := pipeline(t, src, cfg, "main")
	if len(sum.Reports) < 50 {
		t.Fatalf("unlimited reports truncated: %d kept", len(sum.Reports))
	}
	cfg.MaxReports = 3
	_, _, sum = pipeline(t, src, cfg, "main")
	if len(sum.Reports) != 3 {
		t.Fatalf("cap ignored: %d kept", len(sum.Reports))
	}
}
