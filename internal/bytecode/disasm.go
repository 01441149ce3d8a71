package bytecode

import (
	"fmt"
	"strings"

	"positdebug/internal/ir"
)

// Disasm renders the whole chunk in a stable, diff-friendly text form — the
// artifact the golden-file tests pin, so instruction-set or fusion-rule
// changes show up as reviewable diffs.
func (m *Module) Disasm() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chunk globals=[%d,%d) registry=%d\n",
		m.GlobalBase, m.GlobalBase+m.GlobalSize, m.NumRegistry)
	for fi, f := range m.Funcs {
		fmt.Fprintf(&sb, "func %d %s: params=%d regs=%d frame=%d instrumented=%v\n",
			fi, f.Name, f.NumParams, f.NumRegs, f.FrameSize, f.Instrumented)
		for pc := range f.Code {
			sb.WriteString("  ")
			sb.WriteString(m.DisasmInst(f, pc))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// DisasmInst renders one instruction with its pc and source coordinate.
func (m *Module) DisasmInst(f *Func, pc int) string {
	in := &f.Code[pc]
	body := m.instBody(in)
	pos := ""
	if pc < len(f.Pos) {
		pos = fmt.Sprintf("  ; b%d[%d]", f.Pos[pc].Blk, f.Pos[pc].Idx)
	}
	return fmt.Sprintf("%04d  %-40s%s", pc, body, pos)
}

func (m *Module) instBody(in *Inst) string {
	op := in.Op.String()
	t := ir.Type(in.T)
	idSuffix := ""
	if in.ID >= 0 {
		idSuffix = fmt.Sprintf(" id=%d", in.ID)
	}
	switch in.Op {
	case OpNop:
		return op
	case OpConst:
		return fmt.Sprintf("%s r%d, %#x", op, in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("%s r%d, r%d", op, in.Dst, in.A)
	case OpAddI64, OpSubI64, OpMulI64, OpDivI64, OpRemI64,
		OpAddP16, OpSubP16, OpMulP16, OpAddP32, OpSubP32, OpMulP32, OpLtI64:
		return fmt.Sprintf("%s r%d, r%d, r%d", op, in.Dst, in.A, in.B)
	case OpBin:
		return fmt.Sprintf("%s.%s.%s r%d, r%d, r%d", op, binName(in.K), t, in.Dst, in.A, in.B)
	case OpUn:
		return fmt.Sprintf("%s.%s.%s r%d, r%d", op, unName(in.K), t, in.Dst, in.A)
	case OpCmp:
		return fmt.Sprintf("%s.%s.%s r%d, r%d, r%d", op, cmpName(in.K), t, in.Dst, in.A, in.B)
	case OpCast:
		return fmt.Sprintf("%s.%s.%s r%d, r%d", op, t, ir.Type(in.T2), in.Dst, in.A)
	case OpLoad1, OpLoad2, OpLoad4, OpLoad8:
		return fmt.Sprintf("%s r%d, [r%d]", op, in.Dst, in.A)
	case OpStore1, OpStore2, OpStore4, OpStore8:
		return fmt.Sprintf("%s [r%d], r%d", op, in.A, in.B)
	case OpFrameAddr:
		return fmt.Sprintf("%s r%d, fp+%d", op, in.Dst, in.Imm)
	case OpAddrIndex:
		return fmt.Sprintf("%s r%d, r%d + r%d*%d", op, in.Dst, in.A, in.B, in.Imm)
	case OpBr:
		return fmt.Sprintf("%s r%d, @%d, @%d", op, in.A, in.Dst, in.B)
	case OpJmp:
		return fmt.Sprintf("%s @%d", op, in.Dst)
	case OpCall:
		return fmt.Sprintf("%s r%d, fn%d%s", op, in.Dst, in.A, m.argList(in))
	case OpRet:
		if in.A < 0 {
			return op
		}
		return fmt.Sprintf("%s r%d", op, in.A)
	case OpPrint:
		return fmt.Sprintf("%s.%s r%d", op, t, in.A)
	case OpPrintStr:
		if in.Imm < uint64(len(m.Strs)) {
			return fmt.Sprintf("%s %q", op, m.Strs[in.Imm])
		}
		return fmt.Sprintf("%s str#%d", op, in.Imm)
	case OpQClear:
		return op
	case OpQAdd:
		return fmt.Sprintf("%s.%s%s r%d", op, t, negSuffix(in.K), in.A)
	case OpQMAdd:
		return fmt.Sprintf("%s.%s%s r%d, r%d", op, t, negSuffix(in.K), in.A, in.B)
	case OpQVal:
		return fmt.Sprintf("%s.%s r%d", op, t, in.Dst)
	case OpFMA:
		return fmt.Sprintf("%s.%s r%d, r%d, r%d, r%d", op, t, in.Dst, in.A, in.B, int32(in.Imm))

	case OpShPreCall:
		return fmt.Sprintf("%s fn%d%s", op, in.A, m.argList(in))
	case OpShPostCall:
		return fmt.Sprintf("%s.%s r%d%s", op, t, in.Dst, idSuffix)

	case OpFusedConst:
		return fmt.Sprintf("%s.%s r%d, %#x%s", op, t, in.Dst, in.Imm, idSuffix)
	case OpFusedMov:
		return fmt.Sprintf("%s.%s r%d, r%d%s", op, t, in.Dst, in.A, idSuffix)
	case OpFusedAddP16, OpFusedSubP16, OpFusedMulP16,
		OpFusedAddP32, OpFusedSubP32, OpFusedMulP32:
		return fmt.Sprintf("%s r%d, r%d, r%d%s", op, in.Dst, in.A, in.B, idSuffix)
	case OpFusedBin:
		return fmt.Sprintf("%s.%s.%s r%d, r%d, r%d%s", op, binName(in.K), t, in.Dst, in.A, in.B, idSuffix)
	case OpFusedUn:
		return fmt.Sprintf("%s.%s.%s r%d, r%d%s", op, unName(in.K), t, in.Dst, in.A, idSuffix)
	case OpFusedCmp:
		return fmt.Sprintf("%s.%s.%s r%d, r%d, r%d%s", op, cmpName(in.K), t, in.Dst, in.A, in.B, idSuffix)
	case OpFusedCast:
		return fmt.Sprintf("%s.%s.%s r%d, r%d%s", op, t, ir.Type(in.T2), in.Dst, in.A, idSuffix)
	case OpFusedLoad:
		return fmt.Sprintf("%s.%s.%d r%d, [r%d]%s", op, t, in.K, in.Dst, in.A, idSuffix)
	case OpFusedStore:
		return fmt.Sprintf("%s.%s.%d [r%d], r%d%s", op, t, in.K, in.A, in.B, idSuffix)
	case OpFusedPrint:
		return fmt.Sprintf("%s.%s r%d%s", op, t, in.A, idSuffix)
	case OpFusedQClear:
		return op
	case OpFusedQAdd:
		return fmt.Sprintf("%s.%s%s r%d", op, t, negSuffix(in.K), in.A)
	case OpFusedQMAdd:
		return fmt.Sprintf("%s.%s%s r%d, r%d", op, t, negSuffix(in.K), in.A, in.B)
	case OpFusedQVal:
		return fmt.Sprintf("%s.%s r%d%s", op, t, in.Dst, idSuffix)
	case OpFusedFMA:
		return fmt.Sprintf("%s.%s r%d, r%d, r%d, r%d%s", op, t, in.Dst, in.A, in.B, int32(in.Imm), idSuffix)
	case OpFusedRet:
		return fmt.Sprintf("%s.%s r%d", op, t, in.A)
	default:
		return fmt.Sprintf("%s?%d", op, uint8(in.Op))
	}
}

// argList renders a call's argument registers from the shared pool.
func (m *Module) argList(in *Inst) string {
	off, n := in.Imm, in.B
	if n < 0 || off > uint64(len(m.Args)) || uint64(n) > uint64(len(m.Args))-off {
		return fmt.Sprintf(" args[%d+%d?]", off, n)
	}
	var sb strings.Builder
	sb.WriteString(" (")
	for i, r := range m.Args[off : off+uint64(n)] {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "r%d", r)
	}
	sb.WriteString(")")
	return sb.String()
}

// binName/unName/cmpName avoid relying on the enum String methods for
// out-of-range values in a chunk the verifier rejected (their name tables
// index by value).
func binName(k uint8) string {
	if k <= uint8(ir.BinRem) {
		return ir.BinKind(k).String()
	}
	return fmt.Sprintf("bin%d", k)
}

func unName(k uint8) string {
	if k <= uint8(ir.UnAbs) {
		return ir.UnKind(k).String()
	}
	return fmt.Sprintf("un%d", k)
}

func cmpName(k uint8) string {
	if k <= uint8(ir.CmpGe) {
		return ir.CmpPred(k).String()
	}
	return fmt.Sprintf("pred%d", k)
}

func negSuffix(k uint8) string {
	if k == 1 {
		return ".neg"
	}
	return ""
}
