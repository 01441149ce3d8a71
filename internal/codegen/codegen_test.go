package codegen

import (
	"fmt"
	"strings"
	"testing"

	"positdebug/internal/ir"
	"positdebug/internal/lang"
)

func lower(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, mod)
	}
	return mod
}

// TestGlobalLayout: globals are laid out from GlobalBase with element
// alignment and array sizing.
func TestGlobalLayout(t *testing.T) {
	mod := lower(t, `
var a: p8;
var b: f64;
var M: [4][8]p32;
var c: i64;
func f() { }
`)
	byName := map[string]ir.GlobalInfo{}
	for _, g := range mod.Globals {
		byName[g.Name] = g
	}
	if byName["a"].Offset != GlobalBase || byName["a"].Size != 1 {
		t.Fatalf("a: %+v", byName["a"])
	}
	if byName["b"].Offset%8 != 0 {
		t.Fatalf("b misaligned: %+v", byName["b"])
	}
	if byName["M"].Size != 4*8*4 {
		t.Fatalf("M size: %+v", byName["M"])
	}
	if mod.GlobalSize == 0 || byName["c"].Offset < byName["M"].Offset {
		t.Fatal("layout ordering")
	}
}

// TestLayoutAddressSpaceBound: globals may fill the 32-bit address space
// up to its last byte and no further, and a frame must fit above them.
func TestLayoutAddressSpaceBound(t *testing.T) {
	// (maxAddr − GlobalBase) / 4 f32 elements end 3 bytes below maxAddr.
	const fits = (maxAddr - GlobalBase) / 4
	mod := lower(t, fmt.Sprintf("var a: [%d]f32;\nfunc f() { }\n", fits))
	if end := uint64(mod.GlobalBase) + uint64(mod.GlobalSize); end != maxAddr-3 {
		t.Fatalf("globals end at %d, want %d", end, uint64(maxAddr-3))
	}
	for _, tc := range []struct{ src, name string }{
		{fmt.Sprintf("var a: [%d]f32;\n", fits+1), `global "a"`},
		{"var a: [805306368]f32;\nvar b: [805306368]f32;\n", `global "b"`},
		{"var a: [9223372036854775807][2]f64;\n", `global "a"`},
		{fmt.Sprintf("var a: [%d]f32;\nfunc f() { var x: f64; }\n", fits), `local "x"`},
		{"func f() { var m: [65536][65537]f32; }\n", `local "m"`},
	} {
		prog, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		chk, err := lang.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Compile(chk)
		if err == nil || !strings.Contains(err.Error(), tc.name+" does not fit in the 32-bit address space") {
			t.Errorf("%q: got %v, want an error naming %s", tc.src, err, tc.name)
		}
	}
}

// TestParamsSpilled: parameters are stored to frame slots on entry (the
// -O0 shape the shadow-memory design needs).
func TestParamsSpilled(t *testing.T) {
	mod := lower(t, `func f(a: p32, b: f64): p32 { return a; }`)
	f := mod.FuncByName("f")
	if len(f.Params) != 2 || f.NumRegs < 2 {
		t.Fatalf("params: %+v", f)
	}
	stores := 0
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == ir.OpStore {
			stores++
		}
	}
	if stores < 2 {
		t.Fatalf("expected both params spilled, found %d stores", stores)
	}
	// The body must reload `a` rather than use register 0 directly.
	s := f.String()
	if !strings.Contains(s, "load.p32") {
		t.Fatalf("parameter not reloaded through memory:\n%s", s)
	}
}

// TestIndexLowering: 2-D indexing computes base + (i·dim1 + j)·size.
func TestIndexLowering(t *testing.T) {
	mod := lower(t, `
var M: [3][5]f64;
func f(i: i64, j: i64): f64 { return M[i][j]; }
`)
	s := mod.FuncByName("f").String()
	if !strings.Contains(s, "*8") {
		t.Fatalf("element size missing in address arithmetic:\n%s", s)
	}
	if !strings.Contains(s, "const.i64 0x5") {
		t.Fatalf("inner dimension constant missing:\n%s", s)
	}
}

// TestRegistryTexts: tracked instructions carry source positions and
// readable texts (what DAG nodes display).
func TestRegistryTexts(t *testing.T) {
	mod := lower(t, `
func f(x: p32): p32 {
	var y: p32 = x * x - 1.0;
	return sqrt(y);
}
`)
	var texts []string
	for _, m := range mod.Registry {
		texts = append(texts, m.Text)
		if m.Pos.Line == 0 {
			t.Fatalf("registry entry %q missing position", m.Text)
		}
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{"x * x", "x * x - 1.0", "sqrt(y)", "y"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("registry missing %q in %q", want, joined)
		}
	}
}

// TestConstRegistryValue: literal metadata records the exact double value
// the shadow seeds from.
func TestConstRegistryValue(t *testing.T) {
	mod := lower(t, `func f(): p32 { return 0.1; }`)
	found := false
	for _, m := range mod.Registry {
		if m.Op == ir.OpConst && m.Const == 0.1 {
			found = true
		}
	}
	if !found {
		t.Fatal("const 0.1 not recorded in registry")
	}
}

// TestInitFunctionForGlobals: literal global initializers become stores in
// the synthetic __init.
func TestInitFunctionForGlobals(t *testing.T) {
	mod := lower(t, `
var x: f64 = 2.5;
var y: i64 = 7;
func f(): f64 { return x; }
`)
	init := mod.FuncByName("__init")
	if init == nil {
		t.Fatal("__init missing")
	}
	stores := 0
	for _, in := range init.Blocks[0].Instrs {
		if in.Op == ir.OpStore {
			stores++
		}
	}
	if stores != 2 {
		t.Fatalf("__init stores = %d, want 2", stores)
	}
}

// TestImplicitReturn: falling off a non-void function yields a zero-value
// return (and the module still verifies).
func TestImplicitReturn(t *testing.T) {
	mod := lower(t, `
func f(c: bool): i64 {
	if (c) { return 1; }
	return 0;
}
func g(c: bool) {
	if (c) { return; }
}
`)
	_ = mod
}

// TestUnreachableAfterReturn: code after a terminator lands in a fresh
// (unreachable but well-formed) block.
func TestUnreachableAfterReturn(t *testing.T) {
	lower(t, `
func f(): i64 {
	return 1;
	return 2;
}
`)
}
