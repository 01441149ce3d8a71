// Package bytecode compiles ir.Module functions into flat, register-based
// bytecode chunks and defines the instruction set the VM backend executes.
//
// The design is a classic chunk/compiler/verifier/disassembler split:
//
//   - Inst is a fixed-size instruction word; branch targets are pre-resolved
//     program counters, so the VM never touches basic-block structure.
//   - Hot opcodes are specialized by type and kind (AddP16, MulP32, Load4…)
//     so one dispatch replaces the tree-walker's nested switches, and every
//     base-op/shadow-event pair is fused into one superinstruction
//     (add.p16.lut+sh, mul.p32+sh, load+sh, store+sh…) so one dispatch
//     covers arithmetic, the LUT codec fast path, and shadow bookkeeping.
//     Only a call's shadow events (sh.precall, sh.postcall) stay
//     standalone.
//   - Every instruction carries a position-table entry mapping its pc back
//     to the (block, index) of the ir.Instr it came from, so structured
//     fault reports and the file:line:col profiler keep their coordinates.
//
// Fused instructions cost two interpreter steps (they stand for two IR
// instructions); everything else costs one. That keeps step budgets,
// deadline polling cadence and campaign classifications byte-identical to
// the tree-walking oracle.
package bytecode

// Op enumerates VM opcodes. The fused superinstructions form a contiguous
// block at the end so the VM can classify them with one compare (see
// FusedFirst).
type Op uint8

// Base opcodes (one IR instruction each).
const (
	OpInvalid Op = iota
	OpNop
	OpConst // Dst ← Imm
	OpMov   // Dst ← A

	// i64 arithmetic, specialized (loop indices are the common case).
	OpAddI64
	OpSubI64
	OpMulI64
	OpDivI64 // traps on zero divisor
	OpRemI64 // traps on zero divisor

	// Posit arithmetic, specialized per configuration: ⟨16,1⟩ runs on the
	// LUT decode + integer-RNE fast path, ⟨32,2⟩ on the branch-lean decoder.
	OpAddP16
	OpSubP16
	OpMulP16
	OpAddP32
	OpSubP32
	OpMulP32

	OpBin // generic: K = ir.BinKind, T = ir.Type (floats, p8, div, …)
	OpUn  // K = ir.UnKind, T = ir.Type

	OpLtI64 // Dst ← A < B (signed), the dominant loop condition
	OpCmp   // generic: K = ir.CmpPred, T = ir.Type

	OpCast // T → T2

	// Loads/stores specialized by width; A is the address register.
	OpLoad1
	OpLoad2
	OpLoad4
	OpLoad8
	OpStore1 // mem[A] ← B
	OpStore2
	OpStore4
	OpStore8

	OpFrameAddr // Dst ← fp + Imm
	OpAddrIndex // Dst ← A + B·Imm

	OpBr   // if A ≠ 0 then pc ← Dst else pc ← B
	OpJmp  // pc ← Dst
	OpCall // Dst ← Funcs[A](args); B = arg count, Imm = arg-pool offset
	OpRet  // return A (−1 void)

	OpPrint    // print value in A of type T
	OpPrintStr // print Strs[Imm]

	OpQClear
	OpQAdd  // quire[T] ±= A (K=1 negates)
	OpQMAdd // quire[T] ±= A·B (K=1 negates)
	OpQVal  // Dst ← round quire[T]
	OpFMA   // Dst ← A·B + regs[Imm], single rounding

	// Call events. Calls have no fused form, so the shadow halves of a call
	// stay standalone; each routes one event to the machine's Hooks exactly
	// as the tree-walker does. Every other shadow event is fused with its
	// base instruction.
	OpShPreCall  // A = callee, B = arg count, Imm = arg-pool offset
	OpShPostCall // Dst (−1 void)

	// Fused superinstructions: one dispatch executes the base operation and
	// delivers its shadow event. Each stands for two IR instructions and
	// costs two steps. Keep this block contiguous and last.
	OpFusedConst
	OpFusedMov
	OpFusedAddP16 // the paper-hot pairs get named superinstructions:
	OpFusedSubP16 // p16 runs arith on the LUT fast path, then the shadow
	OpFusedMulP16 // check, in one dispatch
	OpFusedAddP32
	OpFusedSubP32
	OpFusedMulP32
	OpFusedBin  // generic fused binop (K, T)
	OpFusedUn   // K, T
	OpFusedCmp  // K, T
	OpFusedCast // T → T2
	OpFusedLoad // K = width, T = value type; load + shadow-load check
	OpFusedStore
	OpFusedPrint
	OpFusedQClear
	OpFusedQAdd
	OpFusedQMAdd
	OpFusedQVal
	OpFusedFMA
	OpFusedRet // sh.ret event then return A — the shadow half runs first

	opMax
)

// FusedFirst is the first fused superinstruction; ops ≥ FusedFirst cost two
// steps.
const FusedFirst = OpFusedConst

// NumOps is the number of defined opcodes (golden tests iterate it).
const NumOps = int(opMax)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpNop:     "nop",
	OpConst:   "const",
	OpMov:     "mov",

	OpAddI64: "add.i64",
	OpSubI64: "sub.i64",
	OpMulI64: "mul.i64",
	OpDivI64: "div.i64",
	OpRemI64: "rem.i64",

	OpAddP16: "add.p16.lut",
	OpSubP16: "sub.p16.lut",
	OpMulP16: "mul.p16.lut",
	OpAddP32: "add.p32",
	OpSubP32: "sub.p32",
	OpMulP32: "mul.p32",

	OpBin: "bin",
	OpUn:  "un",

	OpLtI64: "lt.i64",
	OpCmp:   "cmp",

	OpCast: "cast",

	OpLoad1:  "load.1",
	OpLoad2:  "load.2",
	OpLoad4:  "load.4",
	OpLoad8:  "load.8",
	OpStore1: "store.1",
	OpStore2: "store.2",
	OpStore4: "store.4",
	OpStore8: "store.8",

	OpFrameAddr: "frameaddr",
	OpAddrIndex: "addridx",

	OpBr:   "br",
	OpJmp:  "jmp",
	OpCall: "call",
	OpRet:  "ret",

	OpPrint:    "print",
	OpPrintStr: "printstr",

	OpQClear: "qclear",
	OpQAdd:   "qadd",
	OpQMAdd:  "qmadd",
	OpQVal:   "qval",
	OpFMA:    "fma",

	OpShPreCall:  "sh.precall",
	OpShPostCall: "sh.postcall",

	OpFusedConst:  "const+sh",
	OpFusedMov:    "mov+sh",
	OpFusedAddP16: "add.p16.lut+sh",
	OpFusedSubP16: "sub.p16.lut+sh",
	OpFusedMulP16: "mul.p16.lut+sh",
	OpFusedAddP32: "add.p32+sh",
	OpFusedSubP32: "sub.p32+sh",
	OpFusedMulP32: "mul.p32+sh",
	OpFusedBin:    "bin+sh",
	OpFusedUn:     "un+sh",
	OpFusedCmp:    "cmp+sh",
	OpFusedCast:   "cast+sh",
	OpFusedLoad:   "load+sh",
	OpFusedStore:  "store+sh",
	OpFusedPrint:  "print+sh",
	OpFusedQClear: "qclear+sh",
	OpFusedQAdd:   "qadd+sh",
	OpFusedQMAdd:  "qmadd+sh",
	OpFusedQVal:   "qval+sh",
	OpFusedFMA:    "fma+sh",
	OpFusedRet:    "sh+ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}
