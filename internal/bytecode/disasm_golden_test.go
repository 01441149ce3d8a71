package bytecode_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/bytecode"
	"positdebug/internal/ir"
)

// -update rewrites the golden files from the current disassembler output:
//
//	go test ./internal/bytecode -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from %s — if the chunk encoding change is intentional, re-run with -update and review the diff\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// allOpcodesModule builds a synthetic chunk containing every opcode exactly
// once, with operands chosen so each Disasm format arm renders its full
// shape (pools, id suffixes, cast targets, quire negation, …).
func allOpcodesModule() *bytecode.Module {
	p32 := uint8(ir.P32)
	p16 := uint8(ir.P16)
	f64 := uint8(ir.F64)
	ins := func(op bytecode.Op, in bytecode.Inst) bytecode.Inst {
		in.Op = op
		return in
	}
	code := []bytecode.Inst{
		ins(bytecode.OpInvalid, bytecode.Inst{ID: -1}),
		ins(bytecode.OpNop, bytecode.Inst{ID: -1}),
		ins(bytecode.OpConst, bytecode.Inst{Dst: 1, Imm: 0x4000_0000, ID: -1}),
		ins(bytecode.OpMov, bytecode.Inst{Dst: 2, A: 1, ID: -1}),
		ins(bytecode.OpAddI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpSubI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpMulI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpDivI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpRemI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpAddP16, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpSubP16, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpMulP16, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpAddP32, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpSubP32, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpMulP32, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpBin, bytecode.Inst{K: uint8(ir.BinDiv), T: f64, Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpUn, bytecode.Inst{K: uint8(ir.UnNeg), T: p32, Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpLtI64, bytecode.Inst{Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpCmp, bytecode.Inst{K: uint8(ir.CmpLe), T: p32, Dst: 3, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpCast, bytecode.Inst{T: p32, T2: f64, Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpLoad1, bytecode.Inst{Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpLoad2, bytecode.Inst{Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpLoad4, bytecode.Inst{Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpLoad8, bytecode.Inst{Dst: 3, A: 1, ID: -1}),
		ins(bytecode.OpStore1, bytecode.Inst{A: 1, B: 2, ID: -1}),
		ins(bytecode.OpStore2, bytecode.Inst{A: 1, B: 2, ID: -1}),
		ins(bytecode.OpStore4, bytecode.Inst{A: 1, B: 2, ID: -1}),
		ins(bytecode.OpStore8, bytecode.Inst{A: 1, B: 2, ID: -1}),
		ins(bytecode.OpFrameAddr, bytecode.Inst{Dst: 3, Imm: 16, ID: -1}),
		ins(bytecode.OpAddrIndex, bytecode.Inst{Dst: 3, A: 1, B: 2, Imm: 8, ID: -1}),
		ins(bytecode.OpBr, bytecode.Inst{A: 1, Dst: 40, B: 41, ID: -1}),
		ins(bytecode.OpJmp, bytecode.Inst{Dst: 0, ID: -1}),
		ins(bytecode.OpCall, bytecode.Inst{Dst: 3, A: 0, B: 2, Imm: 0, ID: -1}),
		ins(bytecode.OpRet, bytecode.Inst{A: 3, ID: -1}),
		ins(bytecode.OpPrint, bytecode.Inst{T: p32, A: 1, ID: -1}),
		ins(bytecode.OpPrintStr, bytecode.Inst{Imm: 0, ID: -1}),
		ins(bytecode.OpQClear, bytecode.Inst{T: p32, ID: -1}),
		ins(bytecode.OpQAdd, bytecode.Inst{T: p32, A: 1, K: 1, ID: -1}),
		ins(bytecode.OpQMAdd, bytecode.Inst{T: p32, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpQVal, bytecode.Inst{T: p32, Dst: 3, ID: -1}),
		ins(bytecode.OpFMA, bytecode.Inst{T: p32, Dst: 3, A: 1, B: 2, Imm: 1, ID: -1}),
		ins(bytecode.OpShPreCall, bytecode.Inst{A: 0, B: 2, Imm: 0, ID: -1}),
		ins(bytecode.OpShPostCall, bytecode.Inst{T: p32, Dst: 3, ID: 8}),
		ins(bytecode.OpLoadFrame, bytecode.Inst{K: 8, Dst: 3, A: 1, B: -1, Imm: 16, ID: -1}),
		ins(bytecode.OpStoreFrame, bytecode.Inst{K: 4, Dst: -1, A: 1, B: 2, Imm: 24, ID: -1}),
		ins(bytecode.OpLoadAbs, bytecode.Inst{K: 4, Dst: 3, A: 1, B: -1, Imm: 0x10, ID: -1}),
		ins(bytecode.OpAddImmI64, bytecode.Inst{Dst: 3, A: 1, B: 2, Imm: 1, ID: -1}),
		ins(bytecode.OpMulImmI64, bytecode.Inst{Dst: 3, A: 1, B: 2, Imm: 8, ID: -1}),
		ins(bytecode.OpFusedConst, bytecode.Inst{T: p32, Dst: 1, Imm: 0x4000_0000, ID: 0}),
		ins(bytecode.OpFusedMov, bytecode.Inst{T: p32, Dst: 2, A: 1, ID: 1}),
		ins(bytecode.OpFusedAddP16, bytecode.Inst{T: p16, Dst: 3, A: 1, B: 2, ID: 2}),
		ins(bytecode.OpFusedSubP16, bytecode.Inst{T: p16, Dst: 3, A: 1, B: 2, ID: 3}),
		ins(bytecode.OpFusedMulP16, bytecode.Inst{T: p16, Dst: 3, A: 1, B: 2, ID: 4}),
		ins(bytecode.OpFusedAddP32, bytecode.Inst{T: p32, Dst: 3, A: 1, B: 2, ID: 5}),
		ins(bytecode.OpFusedSubP32, bytecode.Inst{T: p32, Dst: 3, A: 1, B: 2, ID: 6}),
		ins(bytecode.OpFusedMulP32, bytecode.Inst{T: p32, Dst: 3, A: 1, B: 2, ID: 7}),
		ins(bytecode.OpFusedBin, bytecode.Inst{K: uint8(ir.BinDiv), T: f64, Dst: 3, A: 1, B: 2, ID: 8}),
		ins(bytecode.OpFusedUn, bytecode.Inst{K: uint8(ir.UnNeg), T: p32, Dst: 3, A: 1, ID: 9}),
		ins(bytecode.OpFusedCmp, bytecode.Inst{K: uint8(ir.CmpLt), T: p32, Dst: 3, A: 1, B: 2, ID: 10}),
		ins(bytecode.OpFusedCast, bytecode.Inst{T: p32, T2: f64, Dst: 3, A: 1, ID: 11}),
		ins(bytecode.OpFusedLoad, bytecode.Inst{K: 4, T: p32, Dst: 3, A: 1, ID: 12}),
		ins(bytecode.OpFusedStore, bytecode.Inst{K: 4, T: p32, A: 1, B: 2, ID: 13}),
		ins(bytecode.OpFusedPrint, bytecode.Inst{T: p32, A: 1, ID: 14}),
		ins(bytecode.OpFusedQClear, bytecode.Inst{T: p32, ID: -1}),
		ins(bytecode.OpFusedQAdd, bytecode.Inst{T: p32, A: 1, K: 1, ID: -1}),
		ins(bytecode.OpFusedQMAdd, bytecode.Inst{T: p32, A: 1, B: 2, ID: -1}),
		ins(bytecode.OpFusedQVal, bytecode.Inst{T: p32, Dst: 3, ID: 15}),
		ins(bytecode.OpFusedFMA, bytecode.Inst{T: p32, Dst: 3, A: 1, B: 2, Imm: 1, ID: 16}),
		ins(bytecode.OpFusedRet, bytecode.Inst{T: p32, A: 3, ID: -1}),
	}
	pos := make([]bytecode.Pos, len(code))
	for i := range pos {
		pos[i] = bytecode.Pos{Blk: int32(i / 16), Idx: int32(i % 16)}
	}
	return &bytecode.Module{
		Funcs: []*bytecode.Func{{
			Name: "every_op", NumParams: 1, NumRegs: 8, FrameSize: 32,
			Instrumented: true, Code: code, Pos: pos,
		}},
		Args:        []int32{1, 2},
		Strs:        []string{"hello\n"},
		GlobalBase:  0,
		GlobalSize:  64,
		NumRegistry: 32,
	}
}

// TestDisasmGoldenAllOpcodes pins the disassembly of a synthetic chunk
// holding every opcode — base, call event, and fused superinstruction — so any
// change to the instruction set or its rendering is a reviewable golden
// diff. The completeness check makes it impossible to add an opcode without
// extending the golden.
func TestDisasmGoldenAllOpcodes(t *testing.T) {
	m := allOpcodesModule()
	seen := make(map[bytecode.Op]bool)
	for _, in := range m.Funcs[0].Code {
		if seen[in.Op] {
			t.Fatalf("opcode %v listed twice in the synthetic chunk", in.Op)
		}
		seen[in.Op] = true
	}
	if len(seen) != bytecode.NumOps {
		for op := 0; op < bytecode.NumOps; op++ {
			if !seen[bytecode.Op(op)] {
				t.Errorf("opcode %v missing from the synthetic chunk", bytecode.Op(op))
			}
		}
		t.Fatalf("synthetic chunk covers %d of %d opcodes", len(seen), bytecode.NumOps)
	}
	checkGolden(t, "all_opcodes.golden", m.Disasm())
}

// goldenSrc is a small posit program whose compiled chunk exercises the
// compiler end of the format: loops, memory traffic, calls, prints, and —
// when instrumented — the fusion pass pairing base ops with their shadow
// events.
const goldenSrc = `
var buf: [4]p32;
func scale(x: p32, f: p32): p32 {
	return x * f;
}
func main(): p32 {
	var acc: p32 = 0.0;
	var i: i64 = 0;
	while (i < 4) {
		buf[i] = scale(1.5, 0.25) + acc;
		acc = acc - buf[i];
		i = i + 1;
	}
	print(acc);
	return acc;
}
`

// TestDisasmGoldenCompiled pins the chunk the compiler actually emits for
// goldenSrc, so fusion-rule changes show up as golden diffs reviewable
// instruction by instruction.
func TestDisasmGoldenCompiled(t *testing.T) {
	prog, err := positdebug.Compile(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := bytecode.Compile(prog.Instrumented(), bytecode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(ch); err != nil {
		t.Fatalf("compiler emitted a chunk the verifier rejects: %v", err)
	}
	checkGolden(t, "compiled_fused.golden", ch.Disasm())
}

// TestCompileRejectsUnpairedShadowEvent cuts one sh.bin off from its bin
// with a nop and requires Compile to refuse the module, naming the event:
// every shadow event but a call's must fuse with the base instruction
// beside it.
func TestCompileRejectsUnpairedShadowEvent(t *testing.T) {
	prog, err := positdebug.Compile(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	mod := *prog.Instrumented()
	mod.Funcs = slices.Clone(mod.Funcs)
	cut := false
find:
	for fi, f := range mod.Funcs {
		for bi, b := range f.Blocks {
			for i := 0; i+1 < len(b.Instrs); i++ {
				if b.Instrs[i].Op == ir.OpBin && b.Instrs[i+1].Op == ir.OpShadowBin {
					nop := ir.Instr{Op: ir.OpNop, Dst: -1, A: -1, B: -1, ID: -1, Fn: -1}
					nf := *f
					nf.Blocks = slices.Clone(f.Blocks)
					nf.Blocks[bi].Instrs = slices.Insert(slices.Clone(b.Instrs), i+1, nop)
					mod.Funcs[fi] = &nf
					cut = true
					break find
				}
			}
		}
	}
	if !cut {
		t.Fatal("goldenSrc has no bin followed by its sh.bin")
	}
	ch, err := bytecode.Compile(&mod, bytecode.Options{})
	if err == nil {
		t.Fatalf("Compile accepted a sh.bin cut off from its bin:\n%s", ch.Disasm())
	}
	if !strings.Contains(err.Error(), "sh.bin") {
		t.Fatalf("error does not name the event: %v", err)
	}
}

// TestDisasmInstCoversEveryOpcode guards the format switch itself: no
// opcode may fall through to the "op?" arm, and every rendered line must
// carry its position comment.
func TestDisasmInstCoversEveryOpcode(t *testing.T) {
	m := allOpcodesModule()
	f := m.Funcs[0]
	for pc := range f.Code {
		line := m.DisasmInst(f, pc)
		if op := f.Code[pc].Op; op != bytecode.OpInvalid {
			if want := op.String(); line == "" || !strings.Contains(line, want) {
				t.Errorf("pc %d (%v): rendering %q does not contain mnemonic %q", pc, op, line, want)
			}
		}
		if !strings.Contains(line, "; b") {
			t.Errorf("pc %d: rendering %q lacks the position comment", pc, line)
		}
	}
}
