package bytecode_test

import (
	"strings"
	"testing"

	"positdebug/internal/bytecode"
	"positdebug/internal/ir"
)

// Helpers building the IR instructions the fusion table compiles. Unused
// register fields hold −1, as codegen leaves them.
func irInst(op ir.Op, t ir.Type, dst, a, b int32, imm uint64) ir.Instr {
	return ir.Instr{Op: op, Type: t, Dst: dst, A: a, B: b, Imm: imm, ID: -1, Fn: -1}
}

func frameAddr(dst int32, off uint64) ir.Instr {
	return irInst(ir.OpFrameAddr, ir.I64, dst, -1, -1, off)
}

func constI64(dst int32, v uint64) ir.Instr { return irInst(ir.OpConst, ir.I64, dst, -1, -1, v) }

func load(t ir.Type, dst, addr int32) ir.Instr { return irInst(ir.OpLoad, t, dst, addr, -1, 0) }

func store(t ir.Type, addr, val int32) ir.Instr { return irInst(ir.OpStore, t, -1, addr, val, 0) }

func binI64(k ir.BinKind, dst, a, b int32) ir.Instr {
	in := irInst(ir.OpBin, ir.I64, dst, a, b, 0)
	in.Kind = uint8(k)
	return in
}

// shadowOf is the shadow event instrumentation emits after base.
func shadowOf(op ir.Op, base ir.Instr, id int32) ir.Instr {
	base.Op, base.ID = op, id
	return base
}

// compileBlock compiles one function whose single block runs instrs and
// returns, and renders each instruction without its pc and position.
func compileBlock(t *testing.T, instrs []ir.Instr) []string {
	t.Helper()
	ret := ir.Instr{Op: ir.OpRet, Dst: -1, A: -1, B: -1, ID: -1, Fn: -1}
	mod := &ir.Module{
		Funcs: []*ir.Func{{
			Name: "f", NumRegs: 8, FrameSize: 32,
			Blocks: []ir.Block{{Instrs: append(instrs, ret)}},
		}},
		GlobalBase: 4096, GlobalSize: 64,
		Registry: make([]ir.InstrMeta, 4),
	}
	ch, err := bytecode.Compile(mod, bytecode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := ch.Funcs[0]
	var got []string
	for pc := range f.Code {
		body, _, _ := strings.Cut(ch.DisasmInst(f, pc)[6:], "; b")
		got = append(got, strings.TrimSpace(body))
	}
	return got
}

// TestBaseFusion pins which adjacent pairs compile to a base-pair
// superinstruction: an address or constant used by the very next
// instruction as a 4- or 8-byte load or store address, or as an operand
// of an i64 add or mul, unless a shadow pair claims that next instruction.
func TestBaseFusion(t *testing.T) {
	ldF64 := load(ir.F64, 2, 1)
	stF64 := store(ir.F64, 1, 2)
	cases := []struct {
		name   string
		instrs []ir.Instr
		want   []string
	}{
		{"frameaddr+load.8", []ir.Instr{frameAddr(1, 16), load(ir.I64, 2, 1)},
			[]string{"ldf.8 r2, [r1 = fp+16]", "ret"}},
		{"frameaddr+load.4", []ir.Instr{frameAddr(1, 4), load(ir.P32, 2, 1)},
			[]string{"ldf.4 r2, [r1 = fp+4]", "ret"}},
		{"frameaddr+load into its own address register", []ir.Instr{frameAddr(1, 8), load(ir.I64, 1, 1)},
			[]string{"ldf.8 r1, [r1 = fp+8]", "ret"}},
		{"frameaddr+store", []ir.Instr{frameAddr(1, 8), store(ir.I64, 1, 3)},
			[]string{"stf.8 [r1 = fp+8], r3", "ret"}},
		{"const+load", []ir.Instr{constI64(1, 0x1000), load(ir.F32, 2, 1)},
			[]string{"ldc.4 r2, [r1 = 0x1000]", "ret"}},
		{"globaladdr+load", []ir.Instr{irInst(ir.OpGlobalAddr, ir.I64, 1, -1, -1, 0x1008), load(ir.I64, 2, 1)},
			[]string{"ldc.8 r2, [r1 = 0x1008]", "ret"}},
		{"const+add.i64", []ir.Instr{constI64(1, 1), binI64(ir.BinAdd, 3, 2, 1)},
			[]string{"addi.i64 r3, r2, r1 = 0x1", "ret"}},
		{"const+mul.i64", []ir.Instr{constI64(1, 8), binI64(ir.BinMul, 3, 2, 1)},
			[]string{"muli.i64 r3, r2, r1 = 0x8", "ret"}},
		{"const on the left of mul.i64 lands in B", []ir.Instr{constI64(1, 8), binI64(ir.BinMul, 3, 1, 2)},
			[]string{"muli.i64 r3, r2, r1 = 0x8", "ret"}},
		{"const squared", []ir.Instr{constI64(1, 3), binI64(ir.BinMul, 3, 1, 1)},
			[]string{"muli.i64 r3, r1, r1 = 0x3", "ret"}},
		{"pairs form left to right", []ir.Instr{constI64(1, 8), constI64(2, 1), binI64(ir.BinAdd, 3, 1, 2)},
			[]string{"const r1, 0x8", "addi.i64 r3, r1, r2 = 0x1", "ret"}},

		{"shadow load comes first", []ir.Instr{frameAddr(1, 0), ldF64, shadowOf(ir.OpShadowLoad, ldF64, 0)},
			[]string{"frameaddr r1, fp+0", "load+sh.f64.8 r2, [r1] id=0", "ret"}},
		{"shadow store comes first", []ir.Instr{frameAddr(1, 0), stF64, shadowOf(ir.OpShadowStore, stF64, 1)},
			[]string{"frameaddr r1, fp+0", "store+sh.f64.8 [r1], r2 id=1", "ret"}},

		{"const not read by the next add", []ir.Instr{constI64(1, 1), binI64(ir.BinAdd, 3, 2, 4)},
			[]string{"const r1, 0x1", "add.i64 r3, r2, r4", "ret"}},
		{"const not read by the next mul", []ir.Instr{constI64(1, 1), binI64(ir.BinMul, 3, 2, 4)},
			[]string{"const r1, 0x1", "mul.i64 r3, r2, r4", "ret"}},
		{"const feeding sub.i64", []ir.Instr{constI64(1, 1), binI64(ir.BinSub, 3, 2, 1)},
			[]string{"const r1, 0x1", "sub.i64 r3, r2, r1", "ret"}},
		{"const feeding a store", []ir.Instr{constI64(1, 0x1000), store(ir.I64, 1, 2)},
			[]string{"const r1, 0x1000", "store.8 [r1], r2", "ret"}},
		{"1-byte load", []ir.Instr{frameAddr(1, 0), load(ir.Bool, 2, 1)},
			[]string{"frameaddr r1, fp+0", "load.1 r2, [r1]", "ret"}},
		{"2-byte store", []ir.Instr{frameAddr(1, 0), store(ir.P16, 1, 2)},
			[]string{"frameaddr r1, fp+0", "store.2 [r1], r2", "ret"}},
		{"2-byte const load", []ir.Instr{constI64(1, 0x1000), load(ir.P16, 2, 1)},
			[]string{"const r1, 0x1000", "load.2 r2, [r1]", "ret"}},
		{"load through another register", []ir.Instr{frameAddr(1, 0), load(ir.I64, 2, 3)},
			[]string{"frameaddr r1, fp+0", "load.8 r2, [r3]", "ret"}},
		{"address stored as a value", []ir.Instr{frameAddr(1, 0), store(ir.I64, 3, 1)},
			[]string{"frameaddr r1, fp+0", "store.8 [r3], r1", "ret"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compileBlock(t, tc.instrs)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("compiled to\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
			}
		})
	}
}

// TestVerifyBasePairWidths: the VM reads and writes a base pair's memory
// at width 8 or else 4, so the verifier must refuse any other width.
func TestVerifyBasePairWidths(t *testing.T) {
	for _, op := range []bytecode.Op{bytecode.OpLoadFrame, bytecode.OpStoreFrame, bytecode.OpLoadAbs} {
		for _, k := range []uint8{0, 1, 2, 4, 8, 16} {
			m := &bytecode.Module{Funcs: []*bytecode.Func{{
				Name: "f", NumRegs: 4,
				Code: []bytecode.Inst{
					{Op: op, K: k, Dst: 2, A: 1, B: 3, ID: -1},
					{Op: bytecode.OpRet, Dst: -1, A: -1, B: -1, ID: -1},
				},
				Pos: make([]bytecode.Pos, 2),
			}}}
			err := bytecode.Verify(m)
			if ok := k == 4 || k == 8; ok != (err == nil) {
				t.Errorf("%v width %d: Verify returned %v", op, k, err)
			}
		}
	}
}
