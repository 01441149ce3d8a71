package herbgrind

import (
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/lang"
	"positdebug/internal/posit"
)

func build(t *testing.T, k backend.Kind, src string) (*Runtime, *interp.Machine) {
	t.Helper()
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
	inst := instrument.Instrument(mod, instrument.Options{})
	rt := New(inst, 128)
	m := interp.New(inst)
	m.Backend = k
	m.Hooks = rt
	return rt, m
}

// eachBackend runs f as one subtest per backend.
func eachBackend(t *testing.T, f func(t *testing.T, k backend.Kind)) {
	t.Helper()
	for _, k := range backend.Kinds() {
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// TestTraceGrowthLinear: the defining property — trace metadata grows
// with the dynamic instruction count.
func TestTraceGrowthLinear(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		rt, m := build(t, k, `
func main(n: i64): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < n; i += 1) {
		s = s + 0.5;
	}
	return s;
}
`)
		if _, err := m.Run("main", 50); err != nil {
			t.Fatal(err)
		}
		small := rt.TraceNodes()
		if _, err := m.Run("main", 500); err != nil {
			t.Fatal(err)
		}
		large := rt.TraceNodes()
		if small == 0 || large < small*8 {
			t.Fatalf("trace nodes %d → %d; expected ~10× growth", small, large)
		}
		if rt.TotalOps() == 0 {
			t.Fatal("ops not counted")
		}
	})
}

// TestInfluencePropagation: influence sets accumulate through arithmetic
// and survive stores/loads.
func TestInfluencePropagation(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		rt, m := build(t, k, `
var g: f64;

func main(): f64 {
	var a: f64 = 1.5;
	var b: f64 = 2.5;
	g = a * b;
	var c: f64 = g + a;
	return c;
}
`)
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		// The final addition's influence set must contain at least the two
		// constants, the multiplication and the addition itself.
		found := 0
		for _, f := range rt.frames {
			_ = f
		}
		// Frames are gone after Run; inspect via memory metadata of g instead.
		for _, mm := range rt.mem {
			if len(mm.infl) >= 2 {
				found++
			}
		}
		if found == 0 {
			t.Fatal("no influence sets of size ≥ 2 reached memory")
		}
	})
}

// TestReprAntiUnification: repeated executions of the same static
// instruction generalize into one representative expression.
func TestReprAntiUnification(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		rt, m := build(t, k, `
func main(): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < 10; i += 1) {
		s = s + 1.0;       // same static add, ten dynamic executions
	}
	return s;
}
`)
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		if rt.ReprSize() == 0 {
			t.Fatal("no representative expressions built")
		}
		// The accumulator add's representative must have become generalized:
		// its left child alternates between "value/const" (iteration 1) and
		// the add itself (later iterations) → anti-unified to "?".
		generalized := false
		for _, n := range rt.repr {
			if hasOp(n, "?") {
				generalized = true
			}
		}
		if !generalized {
			t.Fatal("anti-unification never generalized a loop-carried operand")
		}
	})
}

func hasOp(n *TraceNode, op string) bool {
	if n == nil {
		return false
	}
	if n.Op == op {
		return true
	}
	for _, k := range n.Args {
		if hasOp(k, op) {
			return true
		}
	}
	return false
}

// TestAntiUnifyBudget: deep traces are truncated, not walked unboundedly.
// (The budget bounds the walk; truncation leaves add at most one node per
// exhausted branch.)
func TestAntiUnifyBudget(t *testing.T) {
	deep := &TraceNode{Op: "v"}
	for i := 0; i < 1000; i++ {
		deep = &TraceNode{Op: "+", Args: []*TraceNode{deep, {Op: "v"}}}
	}
	budget := 16
	out := antiUnify(nil, deep, &budget)
	if sz := treeSize(out); sz > 40 {
		t.Fatalf("budget ignored: %d nodes for a 2001-node input", sz)
	}
}

// TestQuireMirroring: the Herbgrind runtime mirrors quire ops so fused
// programs still shadow correctly.
func TestQuireMirroring(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		_, m := build(t, k, `
func main(): p32 {
	qclear();
	qmadd(2.0, 3.0);
	qadd(1.0);
	qsub(0.5);
	qmsub(1.0, 0.25);
	return qround_p32();
}
`)
		v, err := m.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if got := ir.P32.PositConfig().ToFloat64(posit.Bits(v)); got != 6.25 {
			t.Fatalf("fused result %v, want 6.25", got)
		}
	})
}
