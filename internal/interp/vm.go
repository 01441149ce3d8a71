package interp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"positdebug/internal/bytecode"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
)

// Compile lowers mod to the fused bytecode the VM backend executes.
// bytecode.Compile verifies the chunk before returning it, so execution
// never sees an unverified program. Execution only reads a chunk, so one
// chunk may serve any number of machines running mod at once (UseChunk).
func Compile(mod *ir.Module) (*bytecode.Module, error) {
	ch, err := bytecode.Compile(mod, bytecode.Options{})
	if err != nil {
		return nil, fmt.Errorf("interp: vm backend: %w", err)
	}
	return ch, nil
}

// UseChunk hands the machine a chunk Compile built from the machine's own
// module, sparing its VM runs the compile. A chunk compiled from any other
// module is rejected: its functions call back into that module's IR.
func (m *Machine) UseChunk(ch *bytecode.Module) error {
	ok := len(ch.Funcs) == len(m.Mod.Funcs)
	for i := 0; ok && i < len(ch.Funcs); i++ {
		ok = ch.Funcs[i].IR == m.Mod.Funcs[i]
	}
	if !ok {
		return errors.New("interp: chunk was not compiled from the machine's module")
	}
	m.chunk = ch
	return nil
}

// ensureChunk compiles the module to fused bytecode on the machine's first
// VM run, unless UseChunk supplied it.
func (m *Machine) ensureChunk() (*bytecode.Module, error) {
	if m.chunk != nil {
		return m.chunk, nil
	}
	ch, err := Compile(m.Mod)
	if err != nil {
		return nil, err
	}
	m.chunk = ch
	return ch, nil
}

// zeroDirtyMem prepares memory for a VM run, and a released image for the
// free list, by zeroing globals plus only the dirty region of the stack —
// everything below lowWater is untouched since the last reset and still
// zero. Frame pushes and stores maintain lowWater, and tree-walk runs
// poison it to "whole stack dirty", so the optimization is exact: the
// image ends up as all-zero as a full memclr would leave it.
func (m *Machine) zeroDirtyMem() {
	gb, gs := m.Mod.GlobalBase, m.Mod.GlobalSize
	clear(m.mem[gb : gb+gs])
	lw := m.lowWater
	if lw < gb+gs {
		lw = gb + gs
	}
	if int(lw) < len(m.mem) {
		clear(m.mem[lw:])
	}
	m.lowWater = uint32(len(m.mem))
}

// vmMutate is mutate for bytecode instructions: consult the live injector
// right before a value-producing shadow event and rewrite the destination
// register with the corrupted bits. It inlines to one nil test when no
// injector is live.
func (m *Machine) vmMutate(id int32, op ir.Op, t ir.Type, regs []uint64, dst int32) {
	if m.inj != nil {
		m.vmHit(id, op, t, regs, dst)
	}
}

// vmHit is vmMutate past its nil test.
func (m *Machine) vmHit(id int32, op ir.Op, t ir.Type, regs []uint64, dst int32) {
	if nb, ok := m.inj.Mutate(id, op, t, regs[dst]); ok {
		m.injected(id, op, t, regs[dst], nb)
		regs[dst] = nb
	}
}

// vmStoreHit consults the live injector at a store event. A store fault
// corrupts the memory cell, not the register: on a hit it rewrites the
// bytes the store just wrote. It returns the bits the cell now holds.
func (m *Machine) vmStoreHit(ch *bytecode.Module, fname string, id int32, t ir.Type, addr uint32, bits uint64) (uint64, error) {
	nb, ok := m.inj.Mutate(id, ir.OpShadowStore, t, bits)
	if !ok {
		return bits, nil
	}
	m.injected(id, ir.OpShadowStore, t, bits, nb)
	return nb, m.vmStore(ch, fname, t.Size(), addr, nb)
}

// pairTrap passes on err from the base half of a fused pair. The dispatch
// loop charged the pair two steps up front; the shadow half never ran, so
// one is taken back and the count stops where the tree-walker's does.
func (m *Machine) pairTrap(err error) error {
	m.steps--
	return err
}

// memTrap builds the out-of-bounds trap off the hot path, keeping
// vmLoad/vmStore within the inlining budget.
func (m *Machine) memTrap(fname string, size, addr uint32) error {
	return &Trap{Msg: fmt.Sprintf("memory access out of bounds: addr=%d size=%d", addr, size), Func: fname}
}

// vmLoad reads size bytes little-endian with the tree-walker's bounds rule.
func (m *Machine) vmLoad(ch *bytecode.Module, fname string, size, addr uint32) (uint64, error) {
	if addr < ch.GlobalBase || uint64(addr)+uint64(size) > uint64(len(m.mem)) {
		return 0, m.memTrap(fname, size, addr)
	}
	switch size {
	case 1:
		return uint64(m.mem[addr]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.mem[addr:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.mem[addr:])), nil
	default:
		return binary.LittleEndian.Uint64(m.mem[addr:]), nil
	}
}

// vmStore writes size bytes little-endian and tracks the stack low-water
// mark that zeroDirtyMem relies on.
func (m *Machine) vmStore(ch *bytecode.Module, fname string, size, addr uint32, v uint64) error {
	if addr < ch.GlobalBase || uint64(addr)+uint64(size) > uint64(len(m.mem)) {
		return m.memTrap(fname, size, addr)
	}
	// Only stores that reach the stack move the low-water mark: the globals
	// region is unconditionally cleared by zeroDirtyMem, and letting a
	// store inside it drag lowWater below the stack base would degenerate
	// the next reset into a full-stack memclr. A store straddling the end
	// of the globals (PCL does not bounds-check indexing) does count.
	if sb := ch.GlobalBase + ch.GlobalSize; addr+size > sb && addr < m.lowWater {
		m.lowWater = addr
	}
	switch size {
	case 1:
		m.mem[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.mem[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.mem[addr:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.mem[addr:], v)
	}
	return nil
}

// vmFrame is one activation on the VM's explicit call stack: the function,
// the pc it resumes at once its callee returns (the running frame's pc
// lives in vmLoop's local), its frame pointer, the stack pointer its
// return restores, and the base of its register window in vmRegs.
type vmFrame struct {
	f       *bytecode.Func
	pc      int
	fp      uint32
	savedSP uint32
	rb      int
	// entered is set once an instrumented frame's EnterFunc has returned:
	// only such a frame owes the hooks a LeaveFunc.
	entered bool
}

// vmMaxSteps is the run's step budget: the limit's, else the machine's,
// else the default.
func (m *Machine) vmMaxSteps() int64 {
	if m.limSteps != 0 {
		return m.limSteps
	}
	if m.MaxSteps != 0 {
		return m.MaxSteps
	}
	return DefaultMaxSteps
}

// vmRun executes the verified bytecode function fi to completion on an
// empty frame stack, or from checkpoint cp when it is not nil, mirroring
// Machine.call exactly: same frame discipline, hook protocol, step
// accounting, poll cadence, traps, and panic annotation, so every
// observable artifact is byte-identical to the tree-walker's. A trap or
// panic unwinds the frames it leaves, innermost first, calling LeaveFunc
// for each frame that entered, in the order the tree-walker's deferred
// calls run.
func (m *Machine) vmRun(ch *bytecode.Module, fi int32, args []uint64, cp *Checkpoint) (v uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			panic(m.vmUnwind(m.vmAnnotate(r)))
		}
	}()
	if cp != nil {
		m.restoreVM(cp)
	} else {
		err = m.vmPush(ch, fi, args)
	}
	if err == nil {
		v, err = m.vmLoop(ch)
	}
	if err != nil {
		if pv := m.vmUnwind(nil); pv != nil {
			panic(pv)
		}
	}
	return v, err
}

// vmPush enters function fi: the depth and stack checks, the zeroed stack
// frame and register window, the breadcrumbs, and EnterFunc. The depth
// check comes before EnterFunc, so the hooks never see more than
// maxCallDepth live frames.
func (m *Machine) vmPush(ch *bytecode.Module, fi int32, args []uint64) error {
	f := ch.Funcs[fi]
	n := len(m.vmFrames)
	if n >= maxCallDepth {
		return &Trap{Msg: "call depth exceeded", Func: f.Name}
	}
	frame := (f.FrameSize + 7) / 8 * 8
	// The comparison runs in uint64 so absurd global or frame sizes trap
	// instead of wrapping the stack pointer.
	base := uint64(ch.GlobalBase) + uint64(ch.GlobalSize)
	if uint64(m.sp) < base+uint64(frame) {
		return &Trap{Msg: "stack overflow", Func: f.Name}
	}
	savedSP := m.sp
	m.sp -= frame
	fp := m.sp
	if fp < m.lowWater {
		m.lowWater = fp
	}
	// Zero the frame so stale stack data never leaks into locals.
	clear(m.mem[fp:savedSP])

	rb := 0
	if n > 0 {
		top := &m.vmFrames[n-1]
		rb = top.rb + int(top.f.NumRegs)
	}
	end := rb + int(f.NumRegs)
	if end > len(m.vmRegs) {
		grown := make([]uint64, max(2*len(m.vmRegs), end, 256))
		copy(grown, m.vmRegs[:rb])
		m.vmRegs = grown
	}
	regs := m.vmRegs[rb:end]
	clear(regs) // callers rely on unwritten registers reading 0
	copy(regs, args)
	m.vmFrames = append(m.vmFrames, vmFrame{f: f, fp: fp, savedSP: savedSP, rb: rb})

	// The frame's position is block 0, instr 0 from entry (vmPC −1 reads
	// the eager breadcrumbs), so a panicking EnterFunc is annotated as
	// this function's.
	m.curFn, m.curBlk, m.curIdx, m.vmPC = f.IR, 0, 0, -1
	if f.Instrumented {
		m.Hooks.EnterFunc(f.IR, regs[:f.NumParams])
		m.vmFrames[n].entered = true
	}
	return nil
}

// vmPop drops the top frame, restoring the stack pointer and the caller's
// breadcrumb function.
func (m *Machine) vmPop() {
	n := len(m.vmFrames) - 1
	m.sp = m.vmFrames[n].savedSP
	m.vmFrames = m.vmFrames[:n]
	m.curFn = nil
	if n > 0 {
		m.curFn = m.vmFrames[n-1].f.IR
	}
}

// vmReturn leaves the top frame, returning v: LeaveFunc while the frame
// is still on the stack, so a panicking LeaveFunc is annotated at its ret,
// then the pop. It reports whether a caller frame remains, and if so
// writes v to the destination of the call it resumes after.
func (m *Machine) vmReturn(v uint64) bool {
	if fr := &m.vmFrames[len(m.vmFrames)-1]; fr.entered {
		fr.entered = false
		m.Hooks.LeaveFunc()
	}
	m.vmPop()
	n := len(m.vmFrames)
	if n == 0 {
		return false
	}
	caller := &m.vmFrames[n-1]
	if d := caller.f.Code[caller.pc-1].Dst; d >= 0 {
		m.vmRegs[caller.rb+int(d)] = v
	}
	return true
}

// vmAnnotate turns a panic raised while the top frame ran into the
// structured value the run reports. It resolves the lazy breadcrumb: the
// dispatch loop records only the bytecode pc, and block/index are looked
// up here, on the one path that reads them. A panic in the shadow half of
// a fused pair reports the second IR instruction of the pair, matching
// the tree-walker's position at the equivalent point — except in a fused
// ret, whose shadow half (sh.ret) is the first, so the tree-walker has not
// yet counted the ret's step. Structured values pass through, gaining the
// function's name if they lack one.
func (m *Machine) vmAnnotate(r any) any {
	n := len(m.vmFrames)
	if n == 0 {
		return r
	}
	f := m.vmFrames[n-1].f
	switch fv := r.(type) {
	case *Stopped, *InternalFault:
	case *Cancelled:
		if fv.Func == "" {
			fv.Func = f.Name
		}
	case *ResourceExhausted:
		if fv.Func == "" {
			fv.Func = f.Name
		}
	default:
		blk, idx, steps := m.curBlk, m.curIdx, m.steps
		if p := m.vmPC; p >= 0 && p < len(f.Pos) {
			blk, idx = f.Pos[p].Blk, int(f.Pos[p].Idx)
			switch op := f.Code[p].Op; {
			case op == bytecode.OpFusedRet:
				steps--
			case op >= bytecode.FusedFirst:
				idx++
			}
		}
		return &InternalFault{Func: f.Name, Block: blk, Index: idx, Steps: steps, Recovered: fv}
	}
	return r
}

// vmUnwind pops every frame, innermost first, calling LeaveFunc for each
// that entered. pv is the panic in flight (nil after a trap); a LeaveFunc
// that panics replaces it, annotated at its own frame, as a deferred
// LeaveFunc panicking during a return or an unwind would. It returns the
// panic the run ends with, if any.
func (m *Machine) vmUnwind(pv any) any {
	for n := len(m.vmFrames); n > 0; n = len(m.vmFrames) {
		if fr := &m.vmFrames[n-1]; fr.entered {
			fr.entered = false
			if p := m.vmLeaveGuarded(); p != nil {
				pv = p
			}
		}
		m.vmPop()
	}
	return pv
}

// vmLeaveGuarded calls LeaveFunc for the top frame and returns the panic
// it raised, annotated at that frame.
func (m *Machine) vmLeaveGuarded() (pv any) {
	defer func() {
		if r := recover(); r != nil {
			pv = m.vmAnnotate(r)
		}
	}()
	m.Hooks.LeaveFunc()
	return nil
}

// vmLoop is the dispatch loop: it runs the top frame from its pc until the
// bottom frame returns. The outer loop loads the running frame's function,
// code, frame pointer and register window into locals, which the inner
// loop only reads; a call or return goes round the outer loop. A trap
// returns its error with the frames still on the stack, for vmRun to
// unwind.
func (m *Machine) vmLoop(ch *bytecode.Module) (uint64, error) {
	maxSteps := m.vmMaxSteps()
	// checkAt is the last step before the next one stepCheck can trip on
	// (the budget or the next poll), so the loop pays one comparison per
	// op. It is computed from the step count, which only grows, so it is
	// never too high; at worst it enters vmCheck early, and the steps it
	// checks were never checked before.
	checkAt := m.nextCheck(maxSteps)
frames:
	for {
		fr := &m.vmFrames[len(m.vmFrames)-1]
		f, fp, pc := fr.f, fr.fp, fr.pc
		regs := m.vmRegs[fr.rb : fr.rb+int(f.NumRegs)]
		code := f.Code
		for {
			in := &code[pc]
			op := in.Op
			// A fused superinstruction is two IR steps; charge both up front.
			var w int64 = 1
			if op >= bytecode.FusedFirst {
				w = 2
			}
			if m.steps += w; m.steps > checkAt {
				if err := m.vmCheck(ch, f, pc, regs, w, maxSteps); err != nil {
					return 0, err
				}
				checkAt = m.nextCheck(maxSteps)
			}
			m.vmPC = pc
			pc++
			switch op {
			case bytecode.OpNop:
			case bytecode.OpConst:
				regs[in.Dst] = in.Imm
			case bytecode.OpMov:
				regs[in.Dst] = regs[in.A]
			case bytecode.OpAddI64:
				regs[in.Dst] = uint64(int64(regs[in.A]) + int64(regs[in.B]))
			case bytecode.OpSubI64:
				regs[in.Dst] = uint64(int64(regs[in.A]) - int64(regs[in.B]))
			case bytecode.OpMulI64:
				regs[in.Dst] = uint64(int64(regs[in.A]) * int64(regs[in.B]))
			case bytecode.OpDivI64, bytecode.OpRemI64:
				k := ir.BinDiv
				if op == bytecode.OpRemI64 {
					k = ir.BinRem
				}
				v, err := binEvalN(f.Name, k, ir.I64, regs[in.A], regs[in.B])
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case bytecode.OpAddP16:
				regs[in.Dst] = uint64(posit.Config16.Add(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpSubP16:
				regs[in.Dst] = uint64(posit.Config16.Sub(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpMulP16:
				regs[in.Dst] = uint64(posit.Config16.Mul(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpAddP32:
				regs[in.Dst] = uint64(posit.Config32.Add(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpSubP32:
				regs[in.Dst] = uint64(posit.Config32.Sub(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpMulP32:
				regs[in.Dst] = uint64(posit.Config32.Mul(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
			case bytecode.OpBin:
				v, err := binEvalN(f.Name, ir.BinKind(in.K), ir.Type(in.T), regs[in.A], regs[in.B])
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case bytecode.OpUn:
				regs[in.Dst] = unEval(ir.UnKind(in.K), ir.Type(in.T), regs[in.A])
			case bytecode.OpLtI64:
				if int64(regs[in.A]) < int64(regs[in.B]) {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case bytecode.OpCmp:
				if cmpEval(ir.CmpPred(in.K), ir.Type(in.T), regs[in.A], regs[in.B]) {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case bytecode.OpCast:
				regs[in.Dst] = castEval(ir.Type(in.T), ir.Type(in.T2), regs[in.A])
			case bytecode.OpLoad1:
				v, err := m.vmLoad(ch, f.Name, 1, uint32(regs[in.A]))
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case bytecode.OpLoad2:
				v, err := m.vmLoad(ch, f.Name, 2, uint32(regs[in.A]))
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case bytecode.OpLoad4:
				// Widths 4 and 8 carry all numeric and index traffic; inlined
				// like the fused load to keep the call out of the loop.
				a := uint32(regs[in.A])
				if a < ch.GlobalBase || uint64(a)+4 > uint64(len(m.mem)) {
					return 0, m.memTrap(f.Name, 4, a)
				}
				regs[in.Dst] = uint64(binary.LittleEndian.Uint32(m.mem[a:]))
			case bytecode.OpLoad8:
				a := uint32(regs[in.A])
				if a < ch.GlobalBase || uint64(a)+8 > uint64(len(m.mem)) {
					return 0, m.memTrap(f.Name, 8, a)
				}
				regs[in.Dst] = binary.LittleEndian.Uint64(m.mem[a:])
			case bytecode.OpStore1:
				if err := m.vmStore(ch, f.Name, 1, uint32(regs[in.A]), regs[in.B]); err != nil {
					return 0, err
				}
			case bytecode.OpStore2:
				if err := m.vmStore(ch, f.Name, 2, uint32(regs[in.A]), regs[in.B]); err != nil {
					return 0, err
				}
			case bytecode.OpStore4:
				a := uint32(regs[in.A])
				if a < ch.GlobalBase || uint64(a)+4 > uint64(len(m.mem)) {
					return 0, m.memTrap(f.Name, 4, a)
				}
				if sb := ch.GlobalBase + ch.GlobalSize; a+4 > sb && a < m.lowWater {
					m.lowWater = a
				}
				binary.LittleEndian.PutUint32(m.mem[a:], uint32(regs[in.B]))
			case bytecode.OpStore8:
				a := uint32(regs[in.A])
				if a < ch.GlobalBase || uint64(a)+8 > uint64(len(m.mem)) {
					return 0, m.memTrap(f.Name, 8, a)
				}
				if sb := ch.GlobalBase + ch.GlobalSize; a+8 > sb && a < m.lowWater {
					m.lowWater = a
				}
				binary.LittleEndian.PutUint64(m.mem[a:], regs[in.B])
			case bytecode.OpFrameAddr:
				regs[in.Dst] = uint64(fp) + in.Imm
			case bytecode.OpAddrIndex:
				regs[in.Dst] = regs[in.A] + regs[in.B]*in.Imm
			case bytecode.OpBr:
				if regs[in.A] != 0 {
					pc = int(in.Dst)
				} else {
					pc = int(in.B)
				}
			case bytecode.OpJmp:
				pc = int(in.Dst)
			case bytecode.OpCall:
				m.argScratch = m.argScratch[:0]
				for _, a := range ch.Args[in.Imm : in.Imm+uint64(in.B)] {
					m.argScratch = append(m.argScratch, regs[a])
				}
				m.vmFrames[len(m.vmFrames)-1].pc = pc
				if err := m.vmPush(ch, in.A, m.argScratch); err != nil {
					return 0, err
				}
				continue frames
			case bytecode.OpRet:
				var v uint64
				if in.A >= 0 {
					v = regs[in.A]
				}
				if !m.vmReturn(v) {
					return v, nil
				}
				continue frames
			case bytecode.OpPrint:
				m.print(ir.Type(in.T), regs[in.A])
			case bytecode.OpPrintStr:
				if m.Out != nil {
					fmt.Fprintln(m.Out, ch.Strs[in.Imm])
				}
			case bytecode.OpQClear:
				// qclear() is untyped at the source level; reset every quire.
				for _, q := range m.quires {
					q.Clear()
				}
			case bytecode.OpQAdd:
				q := m.quire(ir.Type(in.T))
				if in.K == 1 {
					q.Sub(posit.Bits(regs[in.A]))
				} else {
					q.Add(posit.Bits(regs[in.A]))
				}
			case bytecode.OpQMAdd:
				q := m.quire(ir.Type(in.T))
				if in.K == 1 {
					q.SubProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
				} else {
					q.AddProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
				}
			case bytecode.OpQVal:
				regs[in.Dst] = uint64(m.quire(ir.Type(in.T)).Posit())
			case bytecode.OpFMA:
				regs[in.Dst] = fmaEval(ir.Type(in.T), regs[in.A], regs[in.B], regs[int32(in.Imm)])

			case bytecode.OpShPreCall:
				m.argScratch = m.argScratch[:0]
				argRegs := ch.Args[in.Imm : in.Imm+uint64(in.B)]
				for _, a := range argRegs {
					m.argScratch = append(m.argScratch, regs[a])
				}
				m.Hooks.PreCall(ch.Funcs[in.A].IR, argRegs, m.argScratch)
			case bytecode.OpShPostCall:
				var bits uint64
				if in.Dst >= 0 {
					m.vmMutate(in.ID, ir.OpShadowPostCall, ir.Type(in.T), regs, in.Dst)
					bits = regs[in.Dst]
				}
				m.Hooks.PostCall(in.ID, ir.Type(in.T), in.Dst, bits)

			case bytecode.OpFusedConst:
				regs[in.Dst] = in.Imm
				m.vmMutate(in.ID, ir.OpShadowConst, ir.Type(in.T), regs, in.Dst)
				m.Hooks.Const(in.ID, ir.Type(in.T), in.Dst, regs[in.Dst])
			case bytecode.OpFusedMov:
				regs[in.Dst] = regs[in.A]
				m.Hooks.Mov(in.ID, ir.Type(in.T), in.Dst, in.A, regs[in.Dst])
			case bytecode.OpFusedAddP16:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config16.Add(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P16, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinAdd, ir.P16, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedSubP16:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config16.Sub(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P16, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinSub, ir.P16, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedMulP16:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config16.Mul(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P16, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinMul, ir.P16, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedAddP32:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config32.Add(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P32, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinAdd, ir.P32, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedSubP32:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config32.Sub(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P32, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinSub, ir.P32, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedMulP32:
				av, bv := regs[in.A], regs[in.B]
				regs[in.Dst] = uint64(posit.Config32.Mul(posit.Bits(av), posit.Bits(bv)))
				m.vmMutate(in.ID, ir.OpShadowBin, ir.P32, regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinMul, ir.P32, in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedBin:
				av, bv := regs[in.A], regs[in.B]
				v, err := binEvalN(f.Name, ir.BinKind(in.K), ir.Type(in.T), av, bv)
				if err != nil {
					return 0, m.pairTrap(err)
				}
				regs[in.Dst] = v
				m.vmMutate(in.ID, ir.OpShadowBin, ir.Type(in.T), regs, in.Dst)
				m.Hooks.Bin(in.ID, ir.BinKind(in.K), ir.Type(in.T), in.Dst, in.A, in.B, regs[in.Dst], av, bv)
			case bytecode.OpFusedUn:
				av := regs[in.A]
				regs[in.Dst] = unEval(ir.UnKind(in.K), ir.Type(in.T), av)
				m.vmMutate(in.ID, ir.OpShadowUn, ir.Type(in.T), regs, in.Dst)
				m.Hooks.Un(in.ID, ir.UnKind(in.K), ir.Type(in.T), in.Dst, in.A, regs[in.Dst], av)
			case bytecode.OpFusedCmp:
				av, bv := regs[in.A], regs[in.B]
				res := cmpEval(ir.CmpPred(in.K), ir.Type(in.T), av, bv)
				if res {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
				m.Hooks.Cmp(in.ID, ir.CmpPred(in.K), ir.Type(in.T), in.A, in.B, av, bv, res)
			case bytecode.OpFusedCast:
				av := regs[in.A]
				regs[in.Dst] = castEval(ir.Type(in.T), ir.Type(in.T2), av)
				m.vmMutate(in.ID, ir.OpShadowCast, ir.Type(in.T), regs, in.Dst)
				m.Hooks.Cast(in.ID, ir.Type(in.T), ir.Type(in.T2), in.Dst, in.A, regs[in.Dst], av)
			case bytecode.OpFusedLoad:
				// Manually inlined vmLoad: the 4- and 8-byte widths carry all
				// numeric traffic, and the call overhead is visible at this
				// opcode's frequency.
				addr := uint32(regs[in.A])
				sz := uint32(in.K)
				if addr < ch.GlobalBase || uint64(addr)+uint64(sz) > uint64(len(m.mem)) {
					return 0, m.pairTrap(m.memTrap(f.Name, sz, addr))
				}
				var v uint64
				switch sz {
				case 1:
					v = uint64(m.mem[addr])
				case 2:
					v = uint64(binary.LittleEndian.Uint16(m.mem[addr:]))
				case 4:
					v = uint64(binary.LittleEndian.Uint32(m.mem[addr:]))
				default:
					v = binary.LittleEndian.Uint64(m.mem[addr:])
				}
				regs[in.Dst] = v
				m.vmMutate(in.ID, ir.OpShadowLoad, ir.Type(in.T), regs, in.Dst)
				m.Hooks.Load(in.ID, ir.Type(in.T), in.Dst, uint32(regs[in.A]), regs[in.Dst])
			case bytecode.OpFusedStore:
				// Manually inlined vmStore, including its low-water bookkeeping.
				saddr := uint32(regs[in.A])
				ssz := uint32(in.K)
				if saddr < ch.GlobalBase || uint64(saddr)+uint64(ssz) > uint64(len(m.mem)) {
					return 0, m.pairTrap(m.memTrap(f.Name, ssz, saddr))
				}
				if sb := ch.GlobalBase + ch.GlobalSize; saddr+ssz > sb && saddr < m.lowWater {
					m.lowWater = saddr
				}
				sv := regs[in.B]
				switch ssz {
				case 1:
					m.mem[saddr] = byte(sv)
				case 2:
					binary.LittleEndian.PutUint16(m.mem[saddr:], uint16(sv))
				case 4:
					binary.LittleEndian.PutUint32(m.mem[saddr:], uint32(sv))
				default:
					binary.LittleEndian.PutUint64(m.mem[saddr:], sv)
				}
				if m.inj != nil {
					var err error
					// The injected write belongs to the shadow half, which the
					// tree-walker has counted too: both steps stand.
					if sv, err = m.vmStoreHit(ch, f.Name, in.ID, ir.Type(in.T), saddr, sv); err != nil {
						return 0, err
					}
				}
				m.Hooks.Store(in.ID, ir.Type(in.T), saddr, in.B, sv)
			case bytecode.OpFusedPrint:
				m.print(ir.Type(in.T), regs[in.A])
				m.Hooks.Print(in.ID, ir.Type(in.T), in.A, regs[in.A])
			case bytecode.OpFusedQClear:
				for _, q := range m.quires {
					q.Clear()
				}
				m.Hooks.QClear(ir.Type(in.T))
			case bytecode.OpFusedQAdd:
				q := m.quire(ir.Type(in.T))
				if in.K == 1 {
					q.Sub(posit.Bits(regs[in.A]))
				} else {
					q.Add(posit.Bits(regs[in.A]))
				}
				m.Hooks.QAdd(ir.Type(in.T), in.A, regs[in.A], in.K == 1)
			case bytecode.OpFusedQMAdd:
				q := m.quire(ir.Type(in.T))
				if in.K == 1 {
					q.SubProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
				} else {
					q.AddProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
				}
				m.Hooks.QMAdd(ir.Type(in.T), in.A, in.B, regs[in.A], regs[in.B], in.K == 1)
			case bytecode.OpFusedQVal:
				regs[in.Dst] = uint64(m.quire(ir.Type(in.T)).Posit())
				m.vmMutate(in.ID, ir.OpShadowQVal, ir.Type(in.T), regs, in.Dst)
				m.Hooks.QVal(in.ID, ir.Type(in.T), in.Dst, regs[in.Dst])
			case bytecode.OpFusedFMA:
				c := int32(in.Imm)
				regs[in.Dst] = fmaEval(ir.Type(in.T), regs[in.A], regs[in.B], regs[c])
				m.vmMutate(in.ID, ir.OpShadowFMA, ir.Type(in.T), regs, in.Dst)
				m.Hooks.FMA(in.ID, ir.Type(in.T), in.Dst, in.A, in.B, c,
					regs[in.Dst], regs[in.A], regs[in.B], regs[c])
			case bytecode.OpFusedRet:
				// The shadow half comes first here: instrumentation emits
				// sh.ret immediately before ret.
				var bits uint64
				if in.A >= 0 {
					bits = regs[in.A]
				}
				m.Hooks.Ret(ir.Type(in.T), in.A, bits)
				// Eager breadcrumb at the ret half: a panicking LeaveFunc
				// runs after the whole pair, which the lazy resolution (a
				// panic in the sh.ret half) would misread.
				m.curBlk, m.curIdx = f.Pos[pc-1].Blk, int(f.Pos[pc-1].Idx)+1
				m.vmPC = -1
				if !m.vmReturn(bits) {
					return bits, nil
				}
				continue frames
			default:
				return 0, &Trap{Msg: fmt.Sprintf("unknown opcode %v", op), Func: f.Name}
			}
		}
	}
}

// nextCheck is the dispatch loop's checkAt: the last step before the next
// one stepCheck can trip on, or the current step while a checkpoint waits
// for the next op boundary.
func (m *Machine) nextCheck(maxSteps int64) int64 {
	if m.rec != nil && m.rec.pending {
		return m.steps
	}
	return min(maxSteps, m.steps|deadlineCheckMask)
}

// vmCheck makes stepCheck for each of the w steps the dispatch loop just
// charged for the op at pc, as the tree-walker would before each. A check
// that trips on the first step reports it and runs nothing. One that
// trips on the second step of a fused pair reports it after running the
// pair's first half, as the tree-walker would have: at its position and
// step count, so a trap or panic there reports neither the fused +1 of
// the lazy breadcrumb nor the second half's step.
func (m *Machine) vmCheck(ch *bytecode.Module, f *bytecode.Func, pc int, regs []uint64, w, maxSteps int64) error {
	first := m.steps - w + 1
	if m.rec != nil {
		m.vmRecord(ch, pc, first, w)
	}
	for s := first; s <= m.steps; s++ {
		err := m.stepCheck(f.Name, s, maxSteps)
		if err == nil {
			continue
		}
		if s > first {
			m.curBlk, m.curIdx = f.Pos[pc].Blk, int(f.Pos[pc].Idx)
			m.vmPC = -1
			m.steps = first
			if ferr := m.vmFirstHalf(ch, f, &f.Code[pc], regs); ferr != nil {
				return ferr
			}
		}
		m.steps = s
		return err
	}
	return nil
}

// vmFirstHalf executes only the first IR instruction of a fused pair — the
// base operation, or for sh.ret+ret the shadow event — reproducing exactly
// what the tree-walker would have run before a check on the pair's second
// step trips (vmCheck). The second half is never executed.
func (m *Machine) vmFirstHalf(ch *bytecode.Module, f *bytecode.Func, in *bytecode.Inst, regs []uint64) error {
	switch in.Op {
	case bytecode.OpFusedConst:
		regs[in.Dst] = in.Imm
	case bytecode.OpFusedMov:
		regs[in.Dst] = regs[in.A]
	case bytecode.OpFusedAddP16:
		regs[in.Dst] = uint64(posit.Config16.Add(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedSubP16:
		regs[in.Dst] = uint64(posit.Config16.Sub(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedMulP16:
		regs[in.Dst] = uint64(posit.Config16.Mul(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedAddP32:
		regs[in.Dst] = uint64(posit.Config32.Add(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedSubP32:
		regs[in.Dst] = uint64(posit.Config32.Sub(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedMulP32:
		regs[in.Dst] = uint64(posit.Config32.Mul(posit.Bits(regs[in.A]), posit.Bits(regs[in.B])))
	case bytecode.OpFusedBin:
		v, err := binEvalN(f.Name, ir.BinKind(in.K), ir.Type(in.T), regs[in.A], regs[in.B])
		if err != nil {
			return err
		}
		regs[in.Dst] = v
	case bytecode.OpFusedUn:
		regs[in.Dst] = unEval(ir.UnKind(in.K), ir.Type(in.T), regs[in.A])
	case bytecode.OpFusedCmp:
		if cmpEval(ir.CmpPred(in.K), ir.Type(in.T), regs[in.A], regs[in.B]) {
			regs[in.Dst] = 1
		} else {
			regs[in.Dst] = 0
		}
	case bytecode.OpFusedCast:
		regs[in.Dst] = castEval(ir.Type(in.T), ir.Type(in.T2), regs[in.A])
	case bytecode.OpFusedLoad:
		v, err := m.vmLoad(ch, f.Name, uint32(in.K), uint32(regs[in.A]))
		if err != nil {
			return err
		}
		regs[in.Dst] = v
	case bytecode.OpFusedStore:
		return m.vmStore(ch, f.Name, uint32(in.K), uint32(regs[in.A]), regs[in.B])
	case bytecode.OpFusedPrint:
		m.print(ir.Type(in.T), regs[in.A])
	case bytecode.OpFusedQClear:
		for _, q := range m.quires {
			q.Clear()
		}
	case bytecode.OpFusedQAdd:
		q := m.quire(ir.Type(in.T))
		if in.K == 1 {
			q.Sub(posit.Bits(regs[in.A]))
		} else {
			q.Add(posit.Bits(regs[in.A]))
		}
	case bytecode.OpFusedQMAdd:
		q := m.quire(ir.Type(in.T))
		if in.K == 1 {
			q.SubProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
		} else {
			q.AddProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
		}
	case bytecode.OpFusedQVal:
		regs[in.Dst] = uint64(m.quire(ir.Type(in.T)).Posit())
	case bytecode.OpFusedFMA:
		regs[in.Dst] = fmaEval(ir.Type(in.T), regs[in.A], regs[in.B], regs[int32(in.Imm)])
	case bytecode.OpFusedRet:
		var bits uint64
		if in.A >= 0 {
			bits = regs[in.A]
		}
		m.Hooks.Ret(ir.Type(in.T), in.A, bits)
	}
	return nil
}
