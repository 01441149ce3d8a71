package bytecode

import (
	"fmt"

	"positdebug/internal/ir"
)

// Verify statically checks a chunk so the VM can execute it without
// per-instruction register or pc bounds checks: every register index is in
// range, every branch target is a valid pc, pools are referenced in bounds,
// kinds and types are within their enums, and control can never fall off
// the end of a function. Memory addresses stay dynamic (the machine traps
// those at runtime, exactly like the tree-walker).
func Verify(m *Module) error {
	if m == nil {
		return fmt.Errorf("nil chunk")
	}
	for fi, f := range m.Funcs {
		if f == nil {
			return fmt.Errorf("func %d: nil", fi)
		}
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("func %d (%s): %w", fi, f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Func) error {
	if f.NumRegs < 0 || f.NumParams < 0 || f.NumParams > f.NumRegs {
		return fmt.Errorf("bad register counts: params %d regs %d", f.NumParams, f.NumRegs)
	}
	// Cap the frame so the VM's frame rounding and stack-pointer
	// arithmetic can never wrap.
	if f.FrameSize > 1<<30 {
		return fmt.Errorf("frame size %d too large", f.FrameSize)
	}
	if len(f.Pos) != len(f.Code) {
		return fmt.Errorf("position table length %d != code length %d", len(f.Pos), len(f.Code))
	}
	if len(f.Code) == 0 {
		return fmt.Errorf("empty code")
	}
	switch f.Code[len(f.Code)-1].Op {
	case OpRet, OpJmp, OpBr, OpFusedRet:
	default:
		return fmt.Errorf("control falls off the end (last op %v)", f.Code[len(f.Code)-1].Op)
	}
	for pc := range f.Code {
		if err := verifyInst(m, f, pc); err != nil {
			return fmt.Errorf("pc %d (%v): %w", pc, f.Code[pc].Op, err)
		}
	}
	return nil
}

func verifyInst(m *Module, f *Func, pc int) error {
	in := &f.Code[pc]
	reg := func(r int32) error {
		if r < 0 || r >= f.NumRegs {
			return fmt.Errorf("register %d out of range [0,%d)", r, f.NumRegs)
		}
		return nil
	}
	optReg := func(r int32) error {
		if r == -1 {
			return nil
		}
		return reg(r)
	}
	pcOK := func(p int32) error {
		if p < 0 || int(p) >= len(f.Code) {
			return fmt.Errorf("pc target %d out of range [0,%d)", p, len(f.Code))
		}
		return nil
	}
	typ := func(t uint8) error {
		if t == 0 || t > uint8(ir.P32) {
			return fmt.Errorf("bad type %d", t)
		}
		return nil
	}
	id := func(v int32) error {
		if v < -1 || v >= m.NumRegistry {
			return fmt.Errorf("registry id %d out of range [-1,%d)", v, m.NumRegistry)
		}
		return nil
	}
	binK := func(k uint8) error {
		if k > uint8(ir.BinRem) {
			return fmt.Errorf("bad bin kind %d", k)
		}
		return nil
	}
	unK := func(k uint8) error {
		if k > uint8(ir.UnAbs) {
			return fmt.Errorf("bad un kind %d", k)
		}
		return nil
	}
	cmpK := func(k uint8) error {
		if k > uint8(ir.CmpGe) {
			return fmt.Errorf("bad cmp pred %d", k)
		}
		return nil
	}
	negK := func(k uint8) error {
		if k > 1 {
			return fmt.Errorf("bad negate flag %d", k)
		}
		return nil
	}
	width := func(k uint8) error {
		switch k {
		case 1, 2, 4, 8:
			return nil
		}
		return fmt.Errorf("bad width %d", k)
	}
	pool := func(off uint64, n int32) error {
		if n < 0 || off > uint64(len(m.Args)) || uint64(n) > uint64(len(m.Args))-off {
			return fmt.Errorf("arg pool [%d,%d+%d) out of range [0,%d)", off, off, n, len(m.Args))
		}
		for _, r := range m.Args[off : off+uint64(n)] {
			if err := reg(r); err != nil {
				return err
			}
		}
		return nil
	}
	immReg := func(v uint64) error {
		if !immFitsI32(v) {
			return fmt.Errorf("imm register %d overflows int32", v)
		}
		return reg(int32(v))
	}
	callee := func(v int32) error {
		if v < 0 || int(v) >= len(m.Funcs) {
			return fmt.Errorf("callee %d out of range [0,%d)", v, len(m.Funcs))
		}
		return nil
	}
	err2 := func(errs ...error) error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}

	switch in.Op {
	case OpNop:
		return nil
	case OpConst:
		return reg(in.Dst)
	case OpMov:
		return err2(reg(in.Dst), reg(in.A))
	case OpAddI64, OpSubI64, OpMulI64, OpDivI64, OpRemI64,
		OpAddP16, OpSubP16, OpMulP16, OpAddP32, OpSubP32, OpMulP32, OpLtI64:
		return err2(reg(in.Dst), reg(in.A), reg(in.B))
	case OpBin:
		return err2(binK(in.K), typ(in.T), reg(in.Dst), reg(in.A), reg(in.B))
	case OpUn:
		return err2(unK(in.K), typ(in.T), reg(in.Dst), reg(in.A))
	case OpCmp:
		return err2(cmpK(in.K), typ(in.T), reg(in.Dst), reg(in.A), reg(in.B))
	case OpCast:
		return err2(typ(in.T), typ(in.T2), reg(in.Dst), reg(in.A))
	case OpLoad1, OpLoad2, OpLoad4, OpLoad8:
		return err2(reg(in.Dst), reg(in.A))
	case OpStore1, OpStore2, OpStore4, OpStore8:
		return err2(reg(in.A), reg(in.B))
	case OpFrameAddr:
		return reg(in.Dst)
	case OpAddrIndex:
		return err2(reg(in.Dst), reg(in.A), reg(in.B))
	case OpBr:
		return err2(reg(in.A), pcOK(in.Dst), pcOK(in.B))
	case OpJmp:
		return pcOK(in.Dst)
	case OpCall:
		return err2(callee(in.A), optReg(in.Dst), pool(in.Imm, in.B))
	case OpRet:
		return optReg(in.A)
	case OpPrint:
		return err2(typ(in.T), reg(in.A))
	case OpPrintStr:
		if in.Imm >= uint64(len(m.Strs)) {
			return fmt.Errorf("string index %d out of range [0,%d)", in.Imm, len(m.Strs))
		}
		return nil
	case OpQClear:
		return nil
	case OpQAdd:
		return err2(negK(in.K), typ(in.T), reg(in.A))
	case OpQMAdd:
		return err2(negK(in.K), typ(in.T), reg(in.A), reg(in.B))
	case OpQVal:
		return err2(typ(in.T), reg(in.Dst))
	case OpFMA:
		return err2(typ(in.T), reg(in.Dst), reg(in.A), reg(in.B), immReg(in.Imm))

	case OpShPreCall:
		return err2(callee(in.A), pool(in.Imm, in.B))
	case OpShPostCall:
		return err2(typ(in.T), optReg(in.Dst), id(in.ID))

	case OpFusedConst:
		return err2(typ(in.T), reg(in.Dst), id(in.ID))
	case OpFusedMov:
		return err2(typ(in.T), reg(in.Dst), reg(in.A), id(in.ID))
	case OpFusedAddP16, OpFusedSubP16, OpFusedMulP16:
		if ir.Type(in.T) != ir.P16 {
			return fmt.Errorf("p16 superinstruction with type %v", ir.Type(in.T))
		}
		return err2(fusedBinKindOK(in), reg(in.Dst), reg(in.A), reg(in.B), id(in.ID))
	case OpFusedAddP32, OpFusedSubP32, OpFusedMulP32:
		if ir.Type(in.T) != ir.P32 {
			return fmt.Errorf("p32 superinstruction with type %v", ir.Type(in.T))
		}
		return err2(fusedBinKindOK(in), reg(in.Dst), reg(in.A), reg(in.B), id(in.ID))
	case OpFusedBin:
		return err2(binK(in.K), typ(in.T), reg(in.Dst), reg(in.A), reg(in.B), id(in.ID))
	case OpFusedUn:
		return err2(unK(in.K), typ(in.T), reg(in.Dst), reg(in.A), id(in.ID))
	case OpFusedCmp:
		return err2(cmpK(in.K), typ(in.T), reg(in.Dst), reg(in.A), reg(in.B), id(in.ID))
	case OpFusedCast:
		return err2(typ(in.T), typ(in.T2), reg(in.Dst), reg(in.A), id(in.ID))
	case OpFusedLoad:
		return err2(width(in.K), typ(in.T), reg(in.Dst), reg(in.A), id(in.ID))
	case OpFusedStore:
		return err2(width(in.K), typ(in.T), reg(in.A), reg(in.B), id(in.ID))
	case OpFusedPrint:
		return err2(typ(in.T), reg(in.A), id(in.ID))
	case OpFusedQClear:
		return nil
	case OpFusedQAdd:
		return err2(negK(in.K), typ(in.T), reg(in.A))
	case OpFusedQMAdd:
		return err2(negK(in.K), typ(in.T), reg(in.A), reg(in.B))
	case OpFusedQVal:
		return err2(typ(in.T), reg(in.Dst), id(in.ID))
	case OpFusedFMA:
		return err2(typ(in.T), reg(in.Dst), reg(in.A), reg(in.B), immReg(in.Imm), id(in.ID))
	case OpFusedRet:
		return err2(typ(in.T), optReg(in.A))
	default:
		return fmt.Errorf("undefined opcode %d", uint8(in.Op))
	}
}

// fusedBinKindOK checks that a specialized posit superinstruction's K field
// agrees with its opcode (the VM hardcodes the arithmetic but hands K to
// the shadow hook).
func fusedBinKindOK(in *Inst) error {
	var want ir.BinKind
	switch in.Op {
	case OpFusedAddP16, OpFusedAddP32:
		want = ir.BinAdd
	case OpFusedSubP16, OpFusedSubP32:
		want = ir.BinSub
	case OpFusedMulP16, OpFusedMulP32:
		want = ir.BinMul
	}
	if ir.BinKind(in.K) != want {
		return fmt.Errorf("kind %d does not match opcode %v", in.K, in.Op)
	}
	return nil
}
