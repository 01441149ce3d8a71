package bytecode

import (
	"fmt"

	"positdebug/internal/ir"
)

// Options configures compilation. It carries nothing: Compile always fuses.
type Options struct {
	// Deprecated: Fuse is ignored; every base instruction is fused with the
	// shadow event beside it. The one caller that still sets it is the
	// benchmark's perfbench/layers.go.
	Fuse bool
}

// Compile lowers an ir.Module into a flat bytecode chunk and verifies the
// result: a non-nil return is always a chunk the verifier accepts, so the
// VM can execute it with static register and pc checks already discharged.
//
// Each shadow event is fused with the base instruction beside it into one
// superinstruction. The instrumentation pass always places them together;
// a shadow event cut off from its base is a compile error naming the
// event. Only a call's sh.precall and sh.postcall stay standalone. Base
// pairs (fuseBase) are fused too, wherever a shadow pair does not claim
// their second instruction.
func Compile(mod *ir.Module, _ Options) (*Module, error) {
	out := &Module{
		GlobalBase:  mod.GlobalBase,
		GlobalSize:  mod.GlobalSize,
		NumRegistry: int32(len(mod.Registry)),
	}
	for fi, f := range mod.Funcs {
		cf, err := compileFunc(out, f)
		if err != nil {
			return nil, fmt.Errorf("bytecode: %s (func %d): %w", f.Name, fi, err)
		}
		out.Funcs = append(out.Funcs, cf)
	}
	if err := Verify(out); err != nil {
		return nil, fmt.Errorf("bytecode: compiled chunk failed verification: %w", err)
	}
	return out, nil
}

// fixup records a branch whose target pc is patched once all block start
// pcs are known. field 0 patches Dst, 1 patches B.
type fixup struct {
	pc    int
	blk   int32
	field int
}

func compileFunc(out *Module, f *ir.Func) (*Func, error) {
	cf := &Func{
		Name:         f.Name,
		NumParams:    int32(len(f.Params)),
		NumRegs:      f.NumRegs,
		FrameSize:    f.FrameSize,
		Instrumented: f.Instrumented,
		IR:           f,
	}
	blockStart := make([]int32, len(f.Blocks))
	var fixups []fixup

	emit := func(in Inst, blk int32, idx int) {
		cf.Code = append(cf.Code, in)
		cf.Pos = append(cf.Pos, Pos{Blk: blk, Idx: int32(idx)})
	}

	for bi := range f.Blocks {
		blockStart[bi] = int32(len(cf.Code))
		instrs := f.Blocks[bi].Instrs
		for i := 0; i < len(instrs); {
			in := &instrs[i]
			if i+1 < len(instrs) {
				fused, ok := fusePair(in, &instrs[i+1])
				if !ok {
					// A base pair never takes the base half of a shadow pair.
					fused, ok = fuseBase(in, &instrs[i+1])
					if ok && i+2 < len(instrs) {
						_, shadow := fusePair(&instrs[i+1], &instrs[i+2])
						ok = !shadow
					}
				}
				if ok {
					emit(fused, int32(bi), i)
					i += 2
					continue
				}
			}
			lowered, err := lower(out, in)
			if err != nil {
				return nil, fmt.Errorf("block %d instr %d: %w", bi, i, err)
			}
			switch in.Op {
			case ir.OpBr:
				fixups = append(fixups,
					fixup{pc: len(cf.Code), blk: in.Blk[0], field: 0},
					fixup{pc: len(cf.Code), blk: in.Blk[1], field: 1})
			case ir.OpJmp:
				fixups = append(fixups, fixup{pc: len(cf.Code), blk: in.Blk[0], field: 0})
			}
			emit(lowered, int32(bi), i)
			i++
		}
	}

	for _, fx := range fixups {
		if fx.blk < 0 || int(fx.blk) >= len(blockStart) {
			return nil, fmt.Errorf("branch to undefined block %d", fx.blk)
		}
		if fx.field == 0 {
			cf.Code[fx.pc].Dst = blockStart[fx.blk]
		} else {
			cf.Code[fx.pc].B = blockStart[fx.blk]
		}
	}
	return cf, nil
}

// lower translates one IR instruction that fusePair left alone to one
// bytecode instruction. Branch targets are left as placeholders for the
// fixup pass.
func lower(out *Module, in *ir.Instr) (Inst, error) {
	bi := Inst{K: in.Kind, T: uint8(in.Type), T2: uint8(in.Type2),
		Dst: in.Dst, A: in.A, B: in.B, ID: in.ID, Imm: in.Imm}
	switch in.Op {
	case ir.OpNop:
		bi.Op = OpNop
	case ir.OpConst:
		bi.Op = OpConst
	case ir.OpMov:
		bi.Op = OpMov
	case ir.OpBin:
		bi.Op = binOpcode(ir.BinKind(in.Kind), in.Type)
	case ir.OpUn:
		bi.Op = OpUn
	case ir.OpCmp:
		if in.Type == ir.I64 && ir.CmpPred(in.Kind) == ir.CmpLt {
			bi.Op = OpLtI64
		} else {
			bi.Op = OpCmp
		}
	case ir.OpCast:
		bi.Op = OpCast
	case ir.OpLoad:
		op, err := loadOpcode(in.Type)
		if err != nil {
			return Inst{}, err
		}
		bi.Op = op
	case ir.OpStore:
		op, err := storeOpcode(in.Type)
		if err != nil {
			return Inst{}, err
		}
		bi.Op = op
	case ir.OpFrameAddr:
		bi.Op = OpFrameAddr
	case ir.OpGlobalAddr:
		// A global's absolute address is a compile-time constant.
		bi.Op = OpConst
	case ir.OpAddrIndex:
		bi.Op = OpAddrIndex
	case ir.OpBr:
		bi.Op = OpBr
		bi.Dst, bi.B = 0, 0 // patched by fixups
	case ir.OpJmp:
		bi.Op = OpJmp
		bi.Dst = 0 // patched
	case ir.OpCall:
		bi.Op = OpCall
		bi.A = in.Fn
		bi.B = int32(len(in.Args))
		bi.Imm = uint64(len(out.Args))
		out.Args = append(out.Args, in.Args...)
	case ir.OpRet:
		bi.Op = OpRet
	case ir.OpPrint:
		bi.Op = OpPrint
	case ir.OpPrintStr:
		bi.Op = OpPrintStr
		bi.Imm = uint64(len(out.Strs))
		out.Strs = append(out.Strs, in.Str)
	case ir.OpQClear:
		bi.Op = OpQClear
	case ir.OpQAdd:
		bi.Op = OpQAdd
	case ir.OpQMAdd:
		bi.Op = OpQMAdd
	case ir.OpQVal:
		bi.Op = OpQVal
	case ir.OpFMA:
		if len(in.Args) != 3 {
			return Inst{}, fmt.Errorf("fma needs 3 args, got %d", len(in.Args))
		}
		bi.Op = OpFMA
		bi.A, bi.B, bi.Imm = in.Args[0], in.Args[1], uint64(uint32(in.Args[2]))

	case ir.OpShadowPreCall:
		bi.Op = OpShPreCall
		bi.A = in.Fn
		bi.B = int32(len(in.Args))
		bi.Imm = uint64(len(out.Args))
		out.Args = append(out.Args, in.Args...)
	case ir.OpShadowPostCall:
		bi.Op = OpShPostCall
	case ir.OpShadowConst, ir.OpShadowMov, ir.OpShadowBin, ir.OpShadowUn,
		ir.OpShadowCmp, ir.OpShadowCast, ir.OpShadowLoad, ir.OpShadowStore,
		ir.OpShadowRet, ir.OpShadowPrint, ir.OpShadowQClear, ir.OpShadowQAdd,
		ir.OpShadowQMAdd, ir.OpShadowQVal, ir.OpShadowFMA:
		return Inst{}, fmt.Errorf("%v is not beside its base instruction", in.Op)
	default:
		return Inst{}, fmt.Errorf("unknown opcode %v", in.Op)
	}
	return bi, nil
}

func binOpcode(k ir.BinKind, t ir.Type) Op {
	switch t {
	case ir.I64:
		switch k {
		case ir.BinAdd:
			return OpAddI64
		case ir.BinSub:
			return OpSubI64
		case ir.BinMul:
			return OpMulI64
		case ir.BinDiv:
			return OpDivI64
		case ir.BinRem:
			return OpRemI64
		}
	case ir.P16:
		switch k {
		case ir.BinAdd:
			return OpAddP16
		case ir.BinSub:
			return OpSubP16
		case ir.BinMul:
			return OpMulP16
		}
	case ir.P32:
		switch k {
		case ir.BinAdd:
			return OpAddP32
		case ir.BinSub:
			return OpSubP32
		case ir.BinMul:
			return OpMulP32
		}
	}
	return OpBin
}

func loadOpcode(t ir.Type) (Op, error) {
	switch t.Size() {
	case 1:
		return OpLoad1, nil
	case 2:
		return OpLoad2, nil
	case 4:
		return OpLoad4, nil
	case 8:
		return OpLoad8, nil
	}
	return OpInvalid, fmt.Errorf("load of zero-size type %v", t)
}

func storeOpcode(t ir.Type) (Op, error) {
	switch t.Size() {
	case 1:
		return OpStore1, nil
	case 2:
		return OpStore2, nil
	case 4:
		return OpStore4, nil
	case 8:
		return OpStore8, nil
	}
	return OpInvalid, fmt.Errorf("store of zero-size type %v", t)
}

// fusePair recognizes a base instruction followed (or, for returns,
// preceded) by its matching shadow instruction and builds the fused
// superinstruction. The instrumentation pass emits shadows as verbatim
// field copies of their base, so matching is strict field equality on every
// field either half consumes; a shadow event that matches nothing is
// rejected by lower.
func fusePair(a, b *ir.Instr) (Inst, bool) {
	// sh.ret precedes its ret.
	if a.Op == ir.OpShadowRet && b.Op == ir.OpRet && a.A == b.A {
		return Inst{Op: OpFusedRet, T: uint8(a.Type), A: a.A, Dst: -1, B: -1, ID: a.ID}, true
	}
	sameDst := a.Dst == b.Dst
	sameA := a.A == b.A
	sameB := a.B == b.B
	sameTK := a.Type == b.Type && a.Kind == b.Kind
	mk := func(op Op) Inst {
		return Inst{Op: op, K: a.Kind, T: uint8(a.Type), T2: uint8(a.Type2),
			Dst: a.Dst, A: a.A, B: a.B, ID: b.ID, Imm: a.Imm}
	}
	switch {
	case a.Op == ir.OpConst && b.Op == ir.OpShadowConst && sameDst && a.Type == b.Type:
		return mk(OpFusedConst), true
	case a.Op == ir.OpMov && b.Op == ir.OpShadowMov && sameDst && sameA && a.Type == b.Type:
		return mk(OpFusedMov), true
	case a.Op == ir.OpBin && b.Op == ir.OpShadowBin && sameDst && sameA && sameB && sameTK:
		in := mk(fusedBinOpcode(ir.BinKind(a.Kind), a.Type))
		return in, true
	case a.Op == ir.OpUn && b.Op == ir.OpShadowUn && sameDst && sameA && sameTK:
		return mk(OpFusedUn), true
	case a.Op == ir.OpCmp && b.Op == ir.OpShadowCmp && sameDst && sameA && sameB && sameTK:
		return mk(OpFusedCmp), true
	case a.Op == ir.OpCast && b.Op == ir.OpShadowCast && sameDst && sameA &&
		a.Type == b.Type && a.Type2 == b.Type2:
		return mk(OpFusedCast), true
	case a.Op == ir.OpLoad && b.Op == ir.OpShadowLoad && sameDst && sameA && a.Type == b.Type:
		if sz := a.Type.Size(); sz != 0 {
			in := mk(OpFusedLoad)
			in.K = uint8(sz)
			return in, true
		}
	case a.Op == ir.OpStore && b.Op == ir.OpShadowStore && sameA && sameB && a.Type == b.Type:
		if sz := a.Type.Size(); sz != 0 {
			in := mk(OpFusedStore)
			in.K = uint8(sz)
			return in, true
		}
	case a.Op == ir.OpPrint && b.Op == ir.OpShadowPrint && sameA && a.Type == b.Type:
		return mk(OpFusedPrint), true
	case a.Op == ir.OpQClear && b.Op == ir.OpShadowQClear:
		return mk(OpFusedQClear), true
	case a.Op == ir.OpQAdd && b.Op == ir.OpShadowQAdd && sameA && sameTK:
		return mk(OpFusedQAdd), true
	case a.Op == ir.OpQMAdd && b.Op == ir.OpShadowQMAdd && sameA && sameB && sameTK:
		return mk(OpFusedQMAdd), true
	case a.Op == ir.OpQVal && b.Op == ir.OpShadowQVal && sameDst && a.Type == b.Type:
		return mk(OpFusedQVal), true
	case a.Op == ir.OpFMA && b.Op == ir.OpShadowFMA && sameDst && a.Type == b.Type &&
		len(a.Args) == 3 && len(b.Args) == 3 &&
		a.Args[0] == b.Args[0] && a.Args[1] == b.Args[1] && a.Args[2] == b.Args[2]:
		in := mk(OpFusedFMA)
		in.A, in.B, in.Imm = a.Args[0], a.Args[1], uint64(uint32(a.Args[2]))
		return in, true
	}
	return Inst{}, false
}

// fuseBase recognizes a base pair: an address or constant that the next
// instruction reads, as the address of a 4- or 8-byte load or store, or as
// one operand of an i64 add or mul. The fused op keeps the first
// instruction's register as A (B for the arithmetic, whose other operand
// moves to A: both ops commute).
func fuseBase(a, b *ir.Instr) (Inst, bool) {
	r := a.Dst
	wide := b.Type.Size() == 4 || b.Type.Size() == 8
	in := Inst{K: uint8(b.Type.Size()), Dst: b.Dst, A: r, B: -1, ID: -1, Imm: a.Imm}
	switch a.Op {
	case ir.OpFrameAddr:
		switch {
		case b.Op == ir.OpLoad && b.A == r && wide:
			in.Op = OpLoadFrame
			return in, true
		case b.Op == ir.OpStore && b.A == r && wide:
			in.Op, in.Dst, in.B = OpStoreFrame, -1, b.B
			return in, true
		}
	case ir.OpConst, ir.OpGlobalAddr:
		switch {
		case b.Op == ir.OpLoad && b.A == r && wide:
			in.Op = OpLoadAbs
			return in, true
		case b.Op == ir.OpBin && b.Type == ir.I64 && (b.A == r || b.B == r):
			switch ir.BinKind(b.Kind) {
			case ir.BinAdd:
				in.Op = OpAddImmI64
			case ir.BinMul:
				in.Op = OpMulImmI64
			default:
				return Inst{}, false
			}
			in.K, in.A, in.B = 0, b.A, r
			if b.A == r {
				in.A = b.B
			}
			return in, true
		}
	}
	return Inst{}, false
}

func fusedBinOpcode(k ir.BinKind, t ir.Type) Op {
	switch t {
	case ir.P16:
		switch k {
		case ir.BinAdd:
			return OpFusedAddP16
		case ir.BinSub:
			return OpFusedSubP16
		case ir.BinMul:
			return OpFusedMulP16
		}
	case ir.P32:
		switch k {
		case ir.BinAdd:
			return OpFusedAddP32
		case ir.BinSub:
			return OpFusedSubP32
		case ir.BinMul:
			return OpFusedMulP32
		}
	}
	return OpFusedBin
}
