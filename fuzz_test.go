package positdebug_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/bytecode"
	"positdebug/internal/faultinject"
	"positdebug/internal/interp"
	"positdebug/internal/shadow"
)

// TestInstrumentationTransparency is a differential fuzz test over
// randomly generated PCL programs: shadow execution must be a pure
// observer — the instrumented program's result and printed output must be
// bit-identical to the uninstrumented run, for posit and FP programs
// alike, across shadow precisions, with and without tracing.
func TestInstrumentationTransparency(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < 120; trial++ {
		typ := []string{"p32", "p16", "f64", "f32"}[rng.Intn(4)]
		src := randomProgram(rng, typ)
		prog, err := positdebug.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not compile: %v\n%s", trial, err, src)
		}
		base, err := prog.Run("main")
		if err != nil {
			t.Fatalf("trial %d: baseline: %v\n%s", trial, err, src)
		}
		for _, cfg := range []shadow.Config{
			{Precision: 128, Tracing: true, MaxReports: 2},
			{Precision: 256, Tracing: false, MaxReports: 2},
		} {
			res, err := prog.Exec("main", positdebug.WithShadow(cfg))
			if err != nil {
				t.Fatalf("trial %d: shadowed: %v\n%s", trial, err, src)
			}
			if res.Value != base.Value {
				t.Fatalf("trial %d: instrumentation changed the result: %#x vs %#x\n%s",
					trial, res.Value, base.Value, src)
			}
			if res.Output != base.Output {
				t.Fatalf("trial %d: instrumentation changed the output:\n%q\nvs\n%q\n%s",
					trial, res.Output, base.Output, src)
			}
		}
	}
}

// randomProgram emits a small single-function numeric program: a handful
// of variables updated through random arithmetic, array traffic, branches
// and a bounded loop, printing and returning a value.
func randomProgram(rng *rand.Rand, typ string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "var arr: [8]%s;\n\n", typ)
	fmt.Fprintf(&sb, "func main(): %s {\n", typ)
	vars := []string{"a", "b", "c"}
	for _, v := range vars {
		fmt.Fprintf(&sb, "\tvar %s: %s = %s;\n", v, typ, randomLiteral(rng))
	}
	fmt.Fprintf(&sb, "\tfor (var i: i64 = 0; i < 8; i += 1) {\n")
	fmt.Fprintf(&sb, "\t\tarr[i] = %s * a + b;\n", randomLiteral(rng))
	fmt.Fprintf(&sb, "\t}\n")
	n := 3 + rng.Intn(6)
	for i := 0; i < n; i++ {
		v := vars[rng.Intn(len(vars))]
		fmt.Fprintf(&sb, "\t%s = %s;\n", v, randomExpr(rng, vars, 0))
	}
	// A data-dependent branch.
	fmt.Fprintf(&sb, "\tif (a %s b) {\n\t\tc = c + arr[2];\n\t} else {\n\t\tc = c - arr[3];\n\t}\n",
		[]string{"<", "<=", ">", ">=", "==", "!="}[rng.Intn(6)])
	// A reduction over the array.
	fmt.Fprintf(&sb, "\tvar s: %s = 0.0;\n", typ)
	fmt.Fprintf(&sb, "\tfor (var i: i64 = 0; i < 8; i += 1) {\n\t\ts = s + arr[i];\n\t}\n")
	fmt.Fprintf(&sb, "\tprint(s);\n\tprint(c);\n")
	fmt.Fprintf(&sb, "\treturn s + c;\n}\n")
	return sb.String()
}

func randomExpr(rng *rand.Rand, vars []string, depth int) string {
	if depth > 2 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return randomLiteral(rng)
	}
	op := []string{"+", "-", "*", "/"}[rng.Intn(4)]
	l := randomExpr(rng, vars, depth+1)
	r := randomExpr(rng, vars, depth+1)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("sqrt(abs(%s %s %s))", l, op, r)
	case 1:
		return fmt.Sprintf("fma(%s, %s, %s)", l, r, vars[rng.Intn(len(vars))])
	default:
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	}
}

func randomLiteral(rng *rand.Rand) string {
	mant := rng.Intn(1<<12) + 1
	exp := rng.Intn(13) - 6
	v := float64(mant)
	for e := exp; e > 0; e-- {
		v *= 2
	}
	for e := exp; e < 0; e++ {
		v /= 2
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return fmt.Sprintf("%g", v)
}

// FuzzInjector throws random fault models at randomly generated programs
// and asserts the hardened execution contract: no panic ever escapes (the
// machine converts them to structured errors), every run is bounded by its
// limits, and the same seed + model replays a byte-identical fault
// schedule and result.
func FuzzInjector(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.01, int64(0), uint8(0xFF))
	f.Add(int64(42), uint8(1), 0.0, int64(17), uint8(0x03))
	f.Add(int64(-7), uint8(2), 1.0, int64(0), uint8(0x01))
	f.Add(int64(999), uint8(3), 0.5, int64(-3), uint8(0x30))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, rate float64, occ int64, ops uint8) {
		rng := rand.New(rand.NewSource(seed))
		typ := []string{"p32", "p16", "f64", "f32"}[rng.Intn(4)]
		src := randomProgram(rng, typ)
		prog, err := positdebug.Compile(src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			rate = 0
		}
		model := faultinject.Model{
			Kind:       faultinject.Kind(kind % 4),
			Rate:       math.Mod(rate, 1),
			Occurrence: occ % 500,
			Ops:        faultinject.OpClass(ops),
			BitPos:     -1,
		}
		cfg := shadow.Config{Precision: 128, MaxReports: 2}
		lim := interp.Limits{MaxSteps: 2_000_000, Timeout: 5 * time.Second}
		run := func() (*positdebug.Result, []faultinject.Record, error) {
			inj := faultinject.NewInjector(model, seed)
			res, err := prog.Exec("main", positdebug.WithShadow(cfg), positdebug.WithLimits(lim),
				positdebug.WithInjector(inj))
			return res, inj.Schedule(), err
		}
		res1, sched1, err1 := run()
		res2, sched2, err2 := run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("determinism: errors differ: %v vs %v\n%s", err1, err2, src)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("determinism: error texts differ: %v vs %v", err1, err2)
			}
			return // bounded failure (trap / resource limit) is a valid outcome
		}
		if res1.Value != res2.Value || res1.Output != res2.Output {
			t.Fatalf("determinism: results differ: %#x/%q vs %#x/%q\n%s",
				res1.Value, res1.Output, res2.Value, res2.Output, src)
		}
		if !reflect.DeepEqual(sched1, sched2) {
			t.Fatalf("determinism: schedules differ:\n%v\nvs\n%v\n%s", sched1, sched2, src)
		}
	})
}

// FuzzCompile fuzzes the bytecode pipeline end to end over randomly
// generated PCL programs: the compiler must never emit a chunk the verifier
// rejects, and the VM must execute the verifier-accepted chunk without
// panicking — producing exactly the tree-walker's result, output, and
// detection summary.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-7), uint8(2))
	f.Add(int64(999), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, typPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		typ := []string{"p32", "p16", "f64", "f32"}[int(typPick)%4]
		src := randomProgram(rng, typ)
		prog, err := positdebug.Compile(src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		ch, err := bytecode.Compile(prog.Instrumented(), bytecode.Options{})
		if err != nil {
			t.Fatalf("bytecode compile: %v\n%s", err, src)
		}
		if err := bytecode.Verify(ch); err != nil {
			t.Fatalf("compiler emitted a chunk the verifier rejects: %v\n%s\n%s", err, ch.Disasm(), src)
		}
		cfg := shadow.Config{Precision: 128, Tracing: true, MaxReports: 2}
		lim := interp.Limits{MaxSteps: 2_000_000, Timeout: 5 * time.Second}
		run := func(bk backend.Kind) (*positdebug.Result, error) {
			return prog.Exec("main", positdebug.WithBackend(bk),
				positdebug.WithShadow(cfg), positdebug.WithLimits(lim))
		}
		tw, errTW := run(backend.Treewalk)
		vm, errVM := run(backend.VM)
		if (errTW == nil) != (errVM == nil) {
			t.Fatalf("backends disagree on failure: treewalk=%v vm=%v\n%s", errTW, errVM, src)
		}
		if errTW != nil {
			if errTW.Error() != errVM.Error() {
				t.Fatalf("backends disagree on error text:\n  treewalk: %v\n  vm:       %v\n%s",
					errTW, errVM, src)
			}
			return // bounded failure, identically reported — a valid outcome
		}
		if tw.Value != vm.Value || tw.Output != vm.Output {
			t.Fatalf("backends diverged: %#x/%q vs %#x/%q\n%s",
				tw.Value, tw.Output, vm.Value, vm.Output, src)
		}
		if (tw.Summary == nil) != (vm.Summary == nil) {
			t.Fatalf("backends disagree on summary presence\n%s", src)
		}
		if tw.Summary != nil && tw.Summary.String() != vm.Summary.String() {
			t.Fatalf("backends diverged on detection summary:\n--- treewalk ---\n%s\n--- vm ---\n%s\n%s",
				tw.Summary, vm.Summary, src)
		}
	})
}
