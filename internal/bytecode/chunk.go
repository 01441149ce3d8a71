package bytecode

import (
	"math"

	"positdebug/internal/ir"
)

// Inst is one fixed-size bytecode instruction. Field meaning is per opcode
// (see opcodes.go); unused register fields hold −1, unused scalars 0.
type Inst struct {
	Op Op
	K  uint8 // ir.BinKind / ir.UnKind / ir.CmpPred / quire-negate / width
	T  uint8 // ir.Type of the operand or result
	T2 uint8 // ir.Type cast target
	// Dst is the destination register; for OpBr the taken pc, for OpJmp the
	// target pc. A and B are source registers; for OpBr, B is the
	// fall-through pc; for calls, A is the callee index and B the argument
	// count. Imm carries constants, frame offsets, index scales, arg-pool
	// offsets, string indices, and the FMA addend register.
	Dst int32
	A   int32
	B   int32
	ID  int32 // instruction registry id (−1 untracked)
	Imm uint64
}

// Pos maps one pc back to its IR coordinate. Fused instructions record the
// coordinate of the pair's first IR instruction; the second half is by
// construction at Idx+1 in the same block.
type Pos struct {
	Blk int32
	Idx int32
}

// Func is one compiled function. IR points back at the source function for
// hook callbacks (EnterFunc, PreCall) and trap messages.
type Func struct {
	Name         string
	NumParams    int32
	NumRegs      int32
	FrameSize    uint32
	Instrumented bool
	Code         []Inst
	Pos          []Pos // len(Pos) == len(Code)

	IR *ir.Func
}

// Module is a compiled chunk: all functions plus the shared pools. Function
// order matches ir.Module.Funcs, so call sites index both the same way.
type Module struct {
	Funcs []*Func
	// Args is the shared call-argument register pool; OpCall/OpShPreCall
	// reference Args[Imm : Imm+B].
	Args []int32
	// Strs is the print-string pool for OpPrintStr.
	Strs       []string
	GlobalBase uint32
	GlobalSize uint32
	// NumRegistry bounds Inst.ID (ir registry size at compile time).
	NumRegistry int32
}

// immFitsI32 reports whether an Imm holds a value representable as int32 —
// used by the verifier for register-carrying Imm fields (OpFMA addend).
func immFitsI32(v uint64) bool { return v <= math.MaxInt32 }
