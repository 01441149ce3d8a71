package positdebug

import (
	"strings"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/shadow"
)

const fig2 = `
func rootcount(a: p32, b: p32, c: p32): i64 {
	var t1: p32 = b * b;
	var t2: p32 = 4.0 * a * c;
	var t3: p32 = t1 - t2;
	if (t3 > 0.0) { return 2; }
	if (t3 == 0.0) { return 1; }
	return 0;
}
func main(): i64 {
	return rootcount(18309067625725952.0, 3246642954240.0, 143923904.0);
}
`

func TestPublicPipeline(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prog.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if base.I64() != 1 {
		t.Fatalf("baseline result %d, want 1", base.I64())
	}
	if base.Summary != nil {
		t.Fatal("baseline must not carry a summary")
	}
	dbg, err := prog.Exec("main")
	if err != nil {
		t.Fatal(err)
	}
	if dbg.I64() != 1 {
		t.Fatalf("shadowed result %d, want 1 (shadow follows the program)", dbg.I64())
	}
	if !dbg.Summary.Has(shadow.KindCancellation) || dbg.Summary.BranchFlips == 0 {
		t.Fatalf("detections missing: %s", dbg.Summary)
	}
	if dbg.Steps <= base.Steps {
		t.Fatal("instrumented run must execute more instructions")
	}
}

func TestRefactorAndDebug(t *testing.T) {
	fp := `
func main(): f64 {
	var a: f64 = 18309067625725952.0;
	var b: f64 = 3246642954240.0;
	var c: f64 = 143923904.0;
	return b * b - 4.0 * a * c;
}
`
	ps, err := RefactorToPosit(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ps, "p32") || strings.Contains(ps, "f64") {
		t.Fatalf("refactor output:\n%s", ps)
	}
	prog, err := Compile(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Exec("main", WithShadow(shadow.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.P32() != 0 {
		t.Fatalf("posit discriminant = %v, want 0 (cancellation)", res.P32())
	}
	if !res.Summary.Has(shadow.KindCancellation) {
		t.Fatalf("cancellation not detected after refactoring: %s", res.Summary)
	}
}

func TestDebugHerbgrind(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Exec("main", WithHerbgrind(256))
	if err != nil {
		t.Fatal(err)
	}
	if res.I64() != 1 {
		t.Fatalf("herbgrind-mode result %d, want 1", res.I64())
	}
	if res.TraceNodes == 0 {
		t.Fatal("herbgrind mode must accumulate trace nodes")
	}
}

func TestHerbgrindTraceGrowth(t *testing.T) {
	// The defining difference: Herbgrind-style metadata grows with the
	// dynamic instruction count, PositDebug's does not.
	src := `
func main(n: i64): p32 {
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < n; i += 1) {
		s = s + 1.5;
	}
	return s;
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	small, err := prog.Exec("main", WithHerbgrind(128), WithArgs(100))
	if err != nil {
		t.Fatal(err)
	}
	large, err := prog.Exec("main", WithHerbgrind(128), WithArgs(1000))
	if err != nil {
		t.Fatal(err)
	}
	if large.TraceNodes < small.TraceNodes*5 {
		t.Fatalf("trace nodes must grow ~linearly with iterations: %d vs %d",
			small.TraceNodes, large.TraceNodes)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("func f( {"); err == nil {
		t.Fatal("parse error must surface")
	}
	if _, err := Compile("func f(): i64 { return x; }"); err == nil {
		t.Fatal("check error must surface")
	}
}

// TestCompileRejectsArrayBeyondAddressSpace: an array that cannot be laid
// out in the machine's 32-bit address space is a compile error naming it,
// for globals and locals alike. Layout used to multiply and add in 32 bits,
// so a wrapped size of 0 let b share a's storage and main returned 2.
func TestCompileRejectsArrayBeyondAddressSpace(t *testing.T) {
	const body = `
	b[0] = 1.0;
	a[0][0] = 2.0;
	return b[0];
`
	for _, tc := range []struct{ name, src string }{
		{"global", "var a: [65536][65536]f64;\nvar b: [4]f64;\nfunc main(): f64 {" + body + "}"},
		{"local", "func main(): f64 {\n\tvar a: [65536][65536]f64;\n\tvar b: [4]f64;" + body + "}"},
	} {
		prog, err := Compile(tc.src)
		if err == nil {
			for _, bk := range []backend.Kind{backend.VM, backend.Treewalk} {
				if r, err := prog.Exec("main", WithBackend(bk), WithBaseline()); err == nil {
					t.Errorf("%s: %v backend returned %v", tc.name, bk, r.F64())
				}
			}
			t.Errorf("%s: Compile accepted an array larger than the address space", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), `"a" does not fit in the 32-bit address space`) {
			t.Errorf("%s: error does not name the array: %v", tc.name, err)
		}
	}
}

func TestArgHelpers(t *testing.T) {
	prog, err := Compile(`
func addp(a: p32, b: p32): p32 { return a + b; }
func addf(a: f64, b: f64): f64 { return a + b; }
func addi(a: i64, b: i64): i64 { return a + b; }
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.Run("addp", P32Arg(1.5), P32Arg(2.25))
	if err != nil || r.P32() != 3.75 {
		t.Fatalf("addp: %v %v", r, err)
	}
	r, err = prog.Run("addf", F64Arg(1.5), F64Arg(2.25))
	if err != nil || r.F64() != 3.75 {
		t.Fatalf("addf: %v %v", r, err)
	}
	r, err = prog.Run("addi", I64Arg(-2), I64Arg(5))
	if err != nil || r.I64() != 3 {
		t.Fatalf("addi: %v %v", r, err)
	}
	_ = P16Arg(1.0)
	_ = F32Arg(1.0)
}

func TestDebugPartial(t *testing.T) {
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
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Exec("main", WithShadow(shadow.DefaultConfig()), WithSkip("libwrite"))
	if err != nil {
		t.Fatal(err)
	}
	if res.P32() != 42.5 {
		t.Fatalf("result = %v", res.P32())
	}
	if res.Summary.UninstrumentedWrites == 0 {
		t.Fatalf("uninstrumented write not detected: %s", res.Summary)
	}
	// The fully instrumented run of the same program sees no such writes.
	full, err := prog.Exec("main")
	if err != nil {
		t.Fatal(err)
	}
	if full.Summary.UninstrumentedWrites != 0 {
		t.Fatal("full instrumentation must not report uninstrumented writes")
	}
}
