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
	"positdebug/internal/obs"
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
		src := randomProgram(rng, typ, false)
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

// randomProgram emits a small numeric program: a handful of variables
// updated through random arithmetic, array traffic, branches and a bounded
// loop, printing and returning a value. One program in three also passes
// a value to a helper function that loops over shadowed arithmetic. With
// traps set, one program in four stores or loads an array element far out
// of range, which traps in the base half of a fused shadow pair, and half
// the helpers divide an integer by a variable that holds zero, which traps
// inside the callee. The helper is drawn last, so a seed's main body is
// the same with or without one.
func randomProgram(rng *rand.Rand, typ string, traps bool) string {
	var sb strings.Builder
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
	if traps && rng.Intn(4) == 0 {
		// Below the globals, or past the end of memory.
		idx := []int{-100000, 1 << 28}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "\tarr[%d] = s;\n", idx)
		} else {
			fmt.Fprintf(&sb, "\tc = arr[%d];\n", idx)
		}
	}
	var helper strings.Builder
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&helper, "func helper(x: %s, n: i64): %s {\n\tvar y: %s = x;\n", typ, typ, typ)
		fmt.Fprintf(&helper, "\tfor (var j: i64 = 0; j < n; j += 1) {\n\t\ty = %s;\n\t}\n",
			randomExpr(rng, []string{"x", "y"}, 0))
		if traps && rng.Intn(2) == 0 {
			fmt.Fprintf(&helper, "\tvar z: i64 = 0;\n\ty = y + %s(n / z);\n", typ)
		}
		fmt.Fprintf(&helper, "\treturn y;\n}\n\n")
		fmt.Fprintf(&sb, "\tc = helper(c, %d);\n", 1+rng.Intn(4))
	}
	fmt.Fprintf(&sb, "\tprint(s);\n\tprint(c);\n")
	fmt.Fprintf(&sb, "\treturn s + c;\n}\n")
	return fmt.Sprintf("var arr: [8]%s;\n\n%sfunc main(): %s {\n%s", typ, helper.String(), typ, sb.String())
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
		src := randomProgram(rng, typ, false)
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
// panicking — producing exactly the tree-walker's result, output, step
// count, detection summary and metrics dump, or exactly its error. A trap
// carries no step count, so on error the dump's pd_steps_total stands in
// for it. A run that completes reruns under a step budget drawn from the
// seed, short of its step count, which often splits a fused pair; both
// backends must stop with the same error text and dump. Seeds (31, p32)
// and (13, f64) trap inside a fused store and a fused load, and seed
// (11, p32) on an integer division inside the callee.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-7), uint8(2))
	f.Add(int64(999), uint8(3))
	f.Add(int64(31), uint8(0))
	f.Add(int64(13), uint8(2))
	f.Add(int64(11), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, typPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		typ := []string{"p32", "p16", "f64", "f32"}[int(typPick)%4]
		src := randomProgram(rng, typ, true)
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
		run := func(bk backend.Kind) (*positdebug.Result, string, error) {
			reg := obs.NewRegistry()
			res, err := prog.Exec("main", positdebug.WithBackend(bk),
				positdebug.WithShadow(cfg), positdebug.WithLimits(lim), positdebug.WithMetrics(reg))
			return res, promText(t, reg), err
		}
		sameEnd := func(errTW, errVM error, twDump, vmDump string) {
			t.Helper()
			if (errTW == nil) != (errVM == nil) {
				t.Fatalf("backends disagree on failure (budget %d): treewalk=%v vm=%v\n%s", lim.MaxSteps, errTW, errVM, src)
			}
			if errTW != nil && errTW.Error() != errVM.Error() {
				t.Fatalf("backends disagree on error text (budget %d):\n  treewalk: %v\n  vm:       %v\n%s",
					lim.MaxSteps, errTW, errVM, src)
			}
			if twDump != vmDump {
				t.Fatalf("backends diverged on metrics dump (budget %d, err %v):\n--- treewalk ---\n%s\n--- vm ---\n%s\n%s",
					lim.MaxSteps, errTW, twDump, vmDump, src)
			}
		}
		tw, twDump, errTW := run(backend.Treewalk)
		vm, vmDump, errVM := run(backend.VM)
		sameEnd(errTW, errVM, twDump, vmDump)
		if errTW != nil {
			return // bounded failure, identically reported — a valid outcome
		}
		if tw.Value != vm.Value || tw.Output != vm.Output || tw.Steps != vm.Steps {
			t.Fatalf("backends diverged: %#x/%q/%d steps vs %#x/%q/%d steps\n%s",
				tw.Value, tw.Output, tw.Steps, vm.Value, vm.Output, vm.Steps, src)
		}
		if (tw.Summary == nil) != (vm.Summary == nil) {
			t.Fatalf("backends disagree on summary presence\n%s", src)
		}
		if tw.Summary != nil && tw.Summary.String() != vm.Summary.String() {
			t.Fatalf("backends diverged on detection summary:\n--- treewalk ---\n%s\n--- vm ---\n%s\n%s",
				tw.Summary, vm.Summary, src)
		}
		if tw.Steps > 1 {
			lim.MaxSteps = 1 + rng.Int63n(tw.Steps-1)
			_, twDump, errTW = run(backend.Treewalk)
			_, vmDump, errVM = run(backend.VM)
			sameEnd(errTW, errVM, twDump, vmDump)
		}
	})
}
