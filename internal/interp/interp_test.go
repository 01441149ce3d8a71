package interp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/ir"
	"positdebug/internal/lang"
	"positdebug/internal/posit"
)

func instrumentForTest(mod *ir.Module) *ir.Module {
	return instrument.Instrument(mod, instrument.Options{})
}

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, mod)
	}
	return mod
}

// run executes fn on every backend and returns the first backend's (the
// tree-walker's) result and output, failing if any backend disagrees.
func run(t *testing.T, src, fn string, args ...uint64) (uint64, string) {
	t.Helper()
	mod := compile(t, src)
	var v0 uint64
	var out0 string
	for i, k := range backend.Kinds() {
		m := New(mod)
		m.Backend = k
		var out bytes.Buffer
		m.Out = &out
		v, err := m.Run(fn, args...)
		if err != nil {
			t.Fatalf("run on %v: %v", k, err)
		}
		if i == 0 {
			v0, out0 = v, out.String()
		} else if v != v0 || out.String() != out0 {
			t.Fatalf("%v diverged from %v: %#x %q vs %#x %q", k, backend.Kinds()[0], v, out.String(), v0, out0)
		}
	}
	return v0, out0
}

// eachBackend runs f as one subtest per backend: the zero-value machine
// runs the VM, so tests that build machines directly name the backend to
// keep the tree-walker under test too.
func eachBackend(t *testing.T, f func(t *testing.T, k backend.Kind)) {
	t.Helper()
	for _, k := range backend.Kinds() {
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
func fib(n: i64): i64 {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func gcd(a: i64, b: i64): i64 {
	while (b != 0) {
		var tmp: i64 = b;
		b = a % b;
		a = tmp;
	}
	return a;
}
func sumto(n: i64): i64 {
	var s: i64 = 0;
	for (var i: i64 = 1; i <= n; i += 1) {
		s += i;
	}
	return s;
}
`
	if v, _ := run(t, src, "fib", 15); int64(v) != 610 {
		t.Fatalf("fib(15) = %d", int64(v))
	}
	if v, _ := run(t, src, "gcd", 48, 18); int64(v) != 6 {
		t.Fatalf("gcd(48,18) = %d", int64(v))
	}
	if v, _ := run(t, src, "sumto", 100); int64(v) != 5050 {
		t.Fatalf("sumto(100) = %d", int64(v))
	}
}

func TestFloatKernels(t *testing.T) {
	src := `
var A: [16][16]f64;
var n: i64 = 16;

func fill() {
	for (var i: i64 = 0; i < n; i += 1) {
		for (var j: i64 = 0; j < n; j += 1) {
			A[i][j] = f64(i + j) + 0.5;
		}
	}
}
func total(): f64 {
	fill();
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < n; i += 1) {
		for (var j: i64 = 0; j < n; j += 1) {
			s += A[i][j];
		}
	}
	return s;
}
`
	v, _ := run(t, src, "total")
	// sum over i,j of (i+j+0.5) = 16*16*0.5 + 2*16*(0+…+15) = 128 + 3840
	if got := math.Float64frombits(v); got != 3968 {
		t.Fatalf("total = %v", got)
	}
}

func TestPositProgram(t *testing.T) {
	// Figure 2 of the paper as a posit program: the cancellation makes
	// RootCount return 1, while exact arithmetic gives 2.
	src := `
func rootcount(a: p32, b: p32, c: p32): i64 {
	var t1: p32 = b * b;
	var t2: p32 = 4.0 * a * c;
	var t3: p32 = t1 - t2;
	if (t3 > 0.0) { return 2; }
	if (t3 == 0.0) { return 1; }
	return 0;
}
`
	cfg := posit.Config32
	a := uint64(cfg.FromFloat64(1.8309067625725952e16))
	b := uint64(cfg.FromFloat64(3.24664295424e12))
	c := uint64(cfg.FromFloat64(1.43923904e8))
	if v, _ := run(t, src, "rootcount", a, b, c); int64(v) != 1 {
		t.Fatalf("rootcount = %d, want 1 (the posit branch-flip result)", int64(v))
	}
}

func TestQuireBuiltins(t *testing.T) {
	src := `
var xs: [64]p32;
var ys: [64]p32;

func dot_naive(n: i64): p32 {
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < n; i += 1) {
		s += xs[i] * ys[i];
	}
	return s;
}
func dot_fused(n: i64): p32 {
	qclear();
	for (var i: i64 = 0; i < n; i += 1) {
		qmadd(xs[i], ys[i]);
	}
	return qround_p32();
}
func setval(i: i64, x: p32, y: p32) {
	xs[i] = x;
	ys[i] = y;
}
func both(n: i64): i64 {
	print(dot_naive(n));
	print(dot_fused(n));
	if (dot_naive(n) == dot_fused(n)) { return 1; }
	return 0;
}
`
	cfg := posit.Config32
	// First populate, then compute — exercising globals persisting between
	// calls requires a single Run, so drive it via a main-like function.
	src2 := src + `
func main(): i64 {
	for (var i: i64 = 0; i < 32; i += 1) {
		setval(i, p32(i) + 0.125, 3.0);
	}
	return both(32);
}
`
	v, out := run(t, src2, "main")
	// Exact: sum 3·(i+0.125) for i<32 = 3·(496 + 4) = 1500, representable.
	want := cfg.FromFloat64(1500)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[1] != cfg.Format(want) {
		t.Fatalf("fused dot = %s, want %s", lines[1], cfg.Format(want))
	}
	if v != 1 {
		t.Fatalf("naive and fused disagree on an exactly representable case: %s", out)
	}
}

func TestGlobalsInitAndPrint(t *testing.T) {
	src := `
var scale: f64 = 2.5;
var count: i64 = 4;

func main(): f64 {
	print("scaling");
	print(scale);
	print(count);
	print(true);
	return scale * f64(count);
}
`
	v, out := run(t, src, "main")
	if got := math.Float64frombits(v); got != 10 {
		t.Fatalf("main = %v", got)
	}
	want := "scaling\n2.5\n4\ntrue\n"
	if out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

func TestCasts(t *testing.T) {
	src := `
func f2i(x: f64): i64 { return i64(x); }
func p2i(x: p32): i64 { return i64(x); }
func i2p(x: i64): p32 { return p32(x); }
func f2p(x: f64): p32 { return p32(x); }
func p162p32(x: p16): p32 { return p32(x); }
func f2f32(x: f64): f32 { return f32(x); }
`
	if v, _ := run(t, src, "f2i", math.Float64bits(-3.9)); int64(v) != -3 {
		t.Fatalf("i64(-3.9) = %d", int64(v))
	}
	cfg := posit.Config32
	if v, _ := run(t, src, "p2i", uint64(cfg.FromFloat64(7.9))); int64(v) != 7 {
		t.Fatalf("i64(p32 7.9) = %d", int64(v))
	}
	if v, _ := run(t, src, "i2p", uint64(13)); posit.Bits(v) != cfg.FromFloat64(13) {
		t.Fatal("p32(13)")
	}
	if v, _ := run(t, src, "f2p", math.Float64bits(0.3)); posit.Bits(v) != cfg.FromFloat64(0.3) {
		t.Fatal("p32(0.3)")
	}
	p16v := posit.Config16.FromFloat64(1.5)
	if v, _ := run(t, src, "p162p32", uint64(p16v)); posit.Bits(v) != cfg.FromFloat64(1.5) {
		t.Fatal("p32(p16 1.5)")
	}
	if v, _ := run(t, src, "f2f32", math.Float64bits(0.1)); math.Float32frombits(uint32(v)) != float32(0.1) {
		t.Fatal("f32(0.1)")
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
var calls: i64 = 0;

func bump(): bool {
	calls += 1;
	return true;
}
func main(): i64 {
	calls = 0;
	if (false && bump()) { }
	if (true || bump()) { }
	if (true && bump()) { }
	if (false || bump()) { }
	return calls;
}
`
	if v, _ := run(t, src, "main"); int64(v) != 2 {
		t.Fatalf("short circuit calls = %d, want 2", int64(v))
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src, fn string
		args          []uint64
		want          string
	}{
		{"div by zero", `func f(a: i64): i64 { return 1 / a; }`, "f", []uint64{0}, "division by zero"},
		{"mod by zero", `func f(a: i64): i64 { return 1 % a; }`, "f", []uint64{0}, "modulo by zero"},
		{"oob", `var A: [4]f64; func f(i: i64): f64 { return A[i]; }`, "f", []uint64{100000000}, "out of bounds"},
		{"deep recursion", `func f(n: i64): i64 { return f(n + 1); }`, "f", []uint64{0}, "call depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := compile(t, tc.src)
			eachBackend(t, func(t *testing.T, k backend.Kind) {
				m := New(mod)
				m.Backend = k
				_, err := m.Run(tc.fn, tc.args...)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("want trap containing %q, got %v", tc.want, err)
				}
			})
		})
	}
}

func TestStepLimit(t *testing.T) {
	mod := compile(t, `func f(): i64 { var i: i64 = 0; while (true) { i += 1; } return i; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.MaxSteps = 10000
		_, err := m.Run("f")
		if !errors.Is(err, ErrStepLimit) {
			t.Fatalf("want ErrStepLimit, got %v", err)
		}
		var re *ResourceExhausted
		if !errors.As(err, &re) || re.Resource != ResSteps || re.Limit != 10000 || re.Func != "f" {
			t.Fatalf("want structured *ResourceExhausted{steps, 10000, f}, got %#v", err)
		}
	})
}

func TestNaRPropagationThroughProgram(t *testing.T) {
	src := `
func f(a: p32, b: p32): p32 {
	return sqrt(a - b) / (a - a);
}
`
	cfg := posit.Config32
	v, _ := run(t, src, "f", uint64(cfg.FromFloat64(1)), uint64(cfg.FromFloat64(2)))
	if !cfg.IsNaR(posit.Bits(v)) {
		t.Fatalf("sqrt(-1)/0 = %s, want NaR", cfg.Format(posit.Bits(v)))
	}
}

func TestFormatValue(t *testing.T) {
	if got := FormatValue(ir.I64, ^uint64(6)); got != "-7" {
		t.Fatal(got)
	}
	if got := FormatValue(ir.Bool, 1); got != "true" {
		t.Fatal(got)
	}
	if got := FormatValue(ir.F64, math.Float64bits(2.5)); got != "2.5" {
		t.Fatal(got)
	}
	if got := FormatValue(ir.P32, uint64(posit.Config32.NaR())); got != "NaR" {
		t.Fatal(got)
	}
}

func TestIRPrinterSmoke(t *testing.T) {
	mod := compile(t, rootCountForPrinter)
	s := mod.String()
	for _, frag := range []string{"func rootcount", "b0:", "ret", "store.p32", "load.p32"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("printer output missing %q:\n%s", frag, s)
		}
	}
}

const rootCountForPrinter = `
func rootcount(a: p32, b: p32, c: p32): i64 {
	var t1: p32 = b * b;
	var t3: p32 = t1 - 4.0 * a * c;
	if (t3 > 0.0) { return 2; }
	if (t3 == 0.0) { return 1; }
	return 0;
}
`

func TestFMABuiltin(t *testing.T) {
	src := `
func fusedp(a: p32, b: p32, c: p32): p32 { return fma(a, b, c); }
func fusedf(a: f64, b: f64, c: f64): f64 { return fma(a, b, c); }
func fusedf32(a: f32, b: f32, c: f32): f32 { return fma(a, b, c); }
`
	cfg := posit.Config32
	v, _ := run(t, src, "fusedp",
		uint64(cfg.FromFloat64(2)), uint64(cfg.FromFloat64(3)), uint64(cfg.FromFloat64(0.5)))
	if got := cfg.ToFloat64(posit.Bits(v)); got != 6.5 {
		t.Fatalf("posit fma = %v", got)
	}
	// Single rounding: 1+2^-20 squared minus 1 keeps the 2^-40 term in f64.
	x := 1 + math.Ldexp(1, -20)
	v, _ = run(t, src, "fusedf", math.Float64bits(x), math.Float64bits(x), math.Float64bits(-1))
	want := math.FMA(x, x, -1)
	if math.Float64frombits(v) != want {
		t.Fatalf("f64 fma = %v, want %v", math.Float64frombits(v), want)
	}
	v, _ = run(t, src, "fusedf32",
		uint64(math.Float32bits(1.5)), uint64(math.Float32bits(2.5)), uint64(math.Float32bits(0.25)))
	if math.Float32frombits(uint32(v)) != 4.0 {
		t.Fatalf("f32 fma = %v", math.Float32frombits(uint32(v)))
	}
}

func TestInstrumentedWithoutHooks(t *testing.T) {
	// An instrumented module with no runtime attached must still execute
	// correctly (shadow instructions become no-ops via NopHooks).
	mod := compile(t, `func f(a: p32): p32 { return a * a + 1.0; }`)
	instrumented := instrumentForTest(mod)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(instrumented)
		m.Backend = k
		v, err := m.Run("f", uint64(posit.Config32.FromFloat64(3)))
		if err != nil {
			t.Fatal(err)
		}
		if got := posit.Config32.ToFloat64(posit.Bits(v)); got != 10 {
			t.Fatalf("result = %v", got)
		}
	})
}

// TestNopHooksFullDispatch runs an instrumented program exercising every
// shadow opcode with the no-op hooks installed.
func TestNopHooksFullDispatch(t *testing.T) {
	src := `
var g: p32;

func helper(x: p32): p32 { return x + 1.0; }

func main(): i64 {
	g = 2.0;
	var a: p32 = g * 3.0;
	var b: p32 = -a;
	b = abs(b);
	b = sqrt(b);
	b = fma(a, b, g);
	qclear();
	qmadd(a, b);
	qadd(g);
	qsub(g);
	b = qround_p32();
	b = helper(b);
	var c: p16 = p16(b);
	print(c);
	if (b > a) { return i64(b); }
	return 0;
}
`
	mod := instrumentForTest(compile(t, src))
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		var out bytes.Buffer
		m.Out = &out
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatal("no output")
		}
	})
}
