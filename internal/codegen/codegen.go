// Package codegen lowers checked PCL programs to the register IR. The
// lowering is deliberately -O0-shaped: every named variable (parameter or
// local) lives in a frame slot accessed through explicit loads and stores,
// and every expression temporary gets a fresh virtual register — the same
// temporary-vs-memory split the PositDebug paper's metadata design relies
// on. Global variables with literal initializers are initialized by a
// synthetic "__init" function so their stores flow through shadow memory
// like any other store.
package codegen

import (
	"fmt"
	"math"

	"positdebug/internal/ir"
	"positdebug/internal/lang"
)

// GlobalBase is the address of the first global; addresses below it trap,
// catching stray null-ish accesses.
const GlobalBase = 4096

// maxAddr bounds the machine's 32-bit address space: the globals, and the
// globals plus any one frame above them, must end at or below it. Layout
// runs in 64 bits, so an array too large for the address space is a
// compile error rather than a wrapped size that aliases its neighbours.
const maxAddr = math.MaxUint32

// Compile lowers a checked program to an IR module.
func Compile(chk *lang.Checked) (*ir.Module, error) {
	m := &ir.Module{FuncIdx: map[string]int32{}, GlobalBase: GlobalBase}
	g := &gen{m: m, chk: chk, slots: map[*lang.Symbol]slot{}}

	// Lay out globals.
	off := uint64(GlobalBase)
	for _, d := range chk.Prog.Globals {
		sym := chk.DeclSym[d]
		et := ir.TypeFromLang(d.Type.Kind)
		off = align(off, et.Size())
		size, ok := layoutSize(et, d.Type.Dims)
		if !ok || off+size > maxAddr {
			return nil, fmt.Errorf("%s: global %q does not fit in the 32-bit address space", d.Pos, d.Name)
		}
		m.Globals = append(m.Globals, ir.GlobalInfo{Name: d.Name, Type: et, Offset: uint32(off), Size: uint32(size)})
		g.slots[sym] = slot{addr: uint32(off), typ: et, global: true, dims: d.Type.Dims}
		off += size
	}
	m.GlobalSize = uint32(off - GlobalBase)
	// A frame sits on the stack above the globals, rounded to 8 bytes.
	g.maxFrame = (maxAddr - off) &^ 7

	// Function indices first so calls can be resolved in one pass.
	names := make([]string, 0, len(chk.Prog.Funcs)+1)
	for _, f := range chk.Prog.Funcs {
		m.FuncIdx[f.Name] = int32(len(names))
		names = append(names, f.Name)
		m.Funcs = append(m.Funcs, nil)
	}

	// Synthetic initializer for globals with literal init expressions.
	initIdx := int32(len(names))
	m.FuncIdx["__init"] = initIdx
	m.Funcs = append(m.Funcs, nil)
	initFn, err := g.genInit()
	if err != nil {
		return nil, err
	}
	m.Funcs[initIdx] = initFn

	for i, fd := range chk.Prog.Funcs {
		fn, err := g.genFunc(fd)
		if err != nil {
			return nil, err
		}
		m.Funcs[i] = fn
	}
	return m, nil
}

func align(off uint64, sz uint32) uint64 {
	if sz == 0 {
		sz = 1
	}
	return (off + uint64(sz) - 1) / uint64(sz) * uint64(sz)
}

// layoutSize is the byte size of a variable of element type et with the
// given array dims; ok is false when it exceeds the address space.
func layoutSize(et ir.Type, dims []int) (size uint64, ok bool) {
	size = uint64(et.Size())
	for _, d := range dims {
		if uint64(d) > maxAddr {
			return 0, false
		}
		if size *= uint64(d); size > maxAddr {
			return 0, false
		}
	}
	return size, true
}

type slot struct {
	addr   uint32 // frame offset or absolute global address
	typ    ir.Type
	global bool
	dims   []int
}

type gen struct {
	m     *ir.Module
	chk   *lang.Checked
	slots map[*lang.Symbol]slot

	// maxFrame is the largest frame the stack above the globals can hold.
	maxFrame uint64

	// Per-function state.
	fn       *ir.Func
	fd       *lang.FuncDecl
	frameOff uint64
	cur      int
	loopTop  []int32 // continue targets
	loopEnd  []int32 // break targets
}

func (g *gen) newReg() int32 {
	r := g.fn.NumRegs
	g.fn.NumRegs++
	return r
}

func (g *gen) newBlock() int32 {
	g.fn.Blocks = append(g.fn.Blocks, ir.Block{})
	return int32(len(g.fn.Blocks) - 1)
}

func (g *gen) setBlock(b int32) { g.cur = int(b) }

func (g *gen) emit(in ir.Instr) *ir.Instr {
	blk := &g.fn.Blocks[g.cur]
	blk.Instrs = append(blk.Instrs, in)
	return &blk.Instrs[len(blk.Instrs)-1]
}

// track registers an instruction in the module registry and returns its id.
func (g *gen) track(pos lang.Pos, text string, op ir.Op, kind uint8, typ ir.Type) int32 {
	id := int32(len(g.m.Registry))
	fname := "__init"
	if g.fd != nil {
		fname = g.fd.Name
	}
	g.m.Registry = append(g.m.Registry, ir.InstrMeta{
		Func: fname, Pos: pos, Text: text, Op: op, Kind: kind, Type: typ,
	})
	return id
}

func (g *gen) genInit() (*ir.Func, error) {
	g.fn = &ir.Func{Name: "__init", Ret: ir.Void}
	g.fd = nil
	g.frameOff = 0
	g.fn.Blocks = nil
	g.newBlock()
	g.setBlock(0)
	for _, d := range g.chk.Prog.Globals {
		if d.Init == nil {
			continue
		}
		sym := g.chk.DeclSym[d]
		s := g.slots[sym]
		val, err := g.expr(d.Init)
		if err != nil {
			return nil, err
		}
		addr := g.newReg()
		g.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
		id := g.track(d.Pos, d.Name, ir.OpStore, 0, s.typ)
		g.emit(ir.Instr{Op: ir.OpStore, Type: s.typ, A: addr, B: val, ID: id, Dst: -1})
	}
	g.emit(ir.Instr{Op: ir.OpRet, A: -1, Dst: -1, B: -1, ID: -1})
	g.fn.FrameSize = uint32(g.frameOff)
	return g.fn, nil
}

func (g *gen) genFunc(fd *lang.FuncDecl) (*ir.Func, error) {
	g.fd = fd
	g.fn = &ir.Func{Name: fd.Name, Ret: ir.TypeFromLang(fd.Ret.Kind)}
	g.frameOff = 0
	g.newBlock()
	g.setBlock(0)

	// Parameter registers are 0..n−1 by ABI; reserve them all before any
	// temporary so address registers never alias parameters, then spill
	// each to a frame slot so the body addresses them uniformly through
	// memory.
	for _, ps := range g.chk.ParamSym[fd] {
		g.fn.Params = append(g.fn.Params, ir.TypeFromLang(ps.Type.Kind))
		g.fn.NumRegs++
	}
	for i, ps := range g.chk.ParamSym[fd] {
		if err := g.allocLocal(ps, fd.Params[i].Pos); err != nil {
			return nil, err
		}
		s := g.slots[ps]
		addr := g.newReg()
		g.emit(ir.Instr{Op: ir.OpFrameAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
		id := g.track(fd.Params[i].Pos, ps.Name, ir.OpStore, 0, s.typ)
		g.emit(ir.Instr{Op: ir.OpStore, Type: s.typ, A: addr, B: int32(i), ID: id, Dst: -1})
	}

	if err := g.block(fd.Body); err != nil {
		return nil, err
	}
	// Fall-off-the-end: append an implicit return (zero value for
	// non-void functions; well-formed sources return explicitly).
	if !g.terminated() {
		if g.fn.Ret == ir.Void {
			g.emit(ir.Instr{Op: ir.OpRet, A: -1, Dst: -1, B: -1, ID: -1})
		} else {
			z := g.newReg()
			g.emit(ir.Instr{Op: ir.OpConst, Type: g.fn.Ret, Dst: z, ID: -1, A: -1, B: -1})
			g.emit(ir.Instr{Op: ir.OpRet, A: z, Dst: -1, B: -1, ID: -1})
		}
	}
	g.fn.FrameSize = uint32(g.frameOff)
	return g.fn, nil
}

// terminated reports whether the current block already ends in a control
// transfer.
func (g *gen) terminated() bool {
	blk := g.fn.Blocks[g.cur]
	if len(blk.Instrs) == 0 {
		return false
	}
	switch blk.Instrs[len(blk.Instrs)-1].Op {
	case ir.OpBr, ir.OpJmp, ir.OpRet:
		return true
	}
	return false
}

func (g *gen) allocLocal(sym *lang.Symbol, pos lang.Pos) error {
	et := ir.TypeFromLang(sym.Type.Kind)
	g.frameOff = align(g.frameOff, et.Size())
	size, ok := layoutSize(et, sym.Type.Dims)
	if !ok || g.frameOff+size > g.maxFrame {
		return fmt.Errorf("%s: local %q does not fit in the 32-bit address space", pos, sym.Name)
	}
	g.slots[sym] = slot{addr: uint32(g.frameOff), typ: et, dims: sym.Type.Dims}
	g.frameOff += size
	return nil
}

func (g *gen) block(b *lang.BlockStmt) error {
	for _, s := range b.Stmts {
		if g.terminated() {
			// Unreachable trailing code: start a fresh block so the IR
			// stays well-formed.
			nb := g.newBlock()
			g.setBlock(nb)
		}
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return g.block(s)
	case *lang.DeclStmt:
		sym := g.chk.DeclSym[s.Decl]
		if err := g.allocLocal(sym, s.Decl.Pos); err != nil {
			return err
		}
		if s.Decl.Init != nil {
			val, err := g.expr(s.Decl.Init)
			if err != nil {
				return err
			}
			return g.storeVar(sym, s.Decl.Pos, val)
		}
		return nil
	case *lang.AssignStmt:
		val, err := g.expr(s.Rhs)
		if err != nil {
			return err
		}
		switch lhs := s.Lhs.(type) {
		case *lang.Ident:
			return g.storeVar(g.chk.Symbols[lhs], s.Pos, val)
		case *lang.IndexExpr:
			addr, et, err := g.indexAddr(lhs)
			if err != nil {
				return err
			}
			id := g.track(s.Pos, exprText(lhs), ir.OpStore, 0, et)
			g.emit(ir.Instr{Op: ir.OpStore, Type: et, A: addr, B: val, ID: id, Dst: -1})
			return nil
		default:
			return fmt.Errorf("%s: bad assignment target", s.Pos)
		}
	case *lang.ExprStmt:
		_, err := g.expr(s.X)
		return err
	case *lang.IfStmt:
		return g.ifStmt(s)
	case *lang.WhileStmt:
		head := g.newBlock()
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{head}, ID: -1, Dst: -1, A: -1, B: -1})
		g.setBlock(head)
		cond, err := g.expr(s.Cond)
		if err != nil {
			return err
		}
		body := g.newBlock()
		done := g.newBlock()
		g.emit(ir.Instr{Op: ir.OpBr, A: cond, Blk: [2]int32{body, done}, ID: -1, Dst: -1, B: -1})
		g.pushLoop(head, done)
		g.setBlock(body)
		if err := g.block(s.Body); err != nil {
			return err
		}
		if !g.terminated() {
			g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{head}, ID: -1, Dst: -1, A: -1, B: -1})
		}
		g.popLoop()
		g.setBlock(done)
		return nil
	case *lang.ForStmt:
		if s.Init != nil {
			if err := g.stmt(s.Init); err != nil {
				return err
			}
		}
		head := g.newBlock()
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{head}, ID: -1, Dst: -1, A: -1, B: -1})
		g.setBlock(head)
		body := g.newBlock()
		post := g.newBlock()
		done := g.newBlock()
		if s.Cond != nil {
			cond, err := g.expr(s.Cond)
			if err != nil {
				return err
			}
			g.emit(ir.Instr{Op: ir.OpBr, A: cond, Blk: [2]int32{body, done}, ID: -1, Dst: -1, B: -1})
		} else {
			g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{body}, ID: -1, Dst: -1, A: -1, B: -1})
		}
		g.pushLoop(post, done)
		g.setBlock(body)
		if err := g.block(s.Body); err != nil {
			return err
		}
		if !g.terminated() {
			g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{post}, ID: -1, Dst: -1, A: -1, B: -1})
		}
		g.popLoop()
		g.setBlock(post)
		if s.Post != nil {
			if err := g.stmt(s.Post); err != nil {
				return err
			}
		}
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{head}, ID: -1, Dst: -1, A: -1, B: -1})
		g.setBlock(done)
		return nil
	case *lang.ReturnStmt:
		if s.X == nil {
			g.emit(ir.Instr{Op: ir.OpRet, A: -1, Dst: -1, B: -1, ID: -1})
			return nil
		}
		val, err := g.expr(s.X)
		if err != nil {
			return err
		}
		g.emit(ir.Instr{Op: ir.OpRet, A: val, Dst: -1, B: -1, ID: -1})
		return nil
	case *lang.BreakStmt:
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{g.loopEnd[len(g.loopEnd)-1]}, ID: -1, Dst: -1, A: -1, B: -1})
		return nil
	case *lang.ContinueStmt:
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{g.loopTop[len(g.loopTop)-1]}, ID: -1, Dst: -1, A: -1, B: -1})
		return nil
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (g *gen) pushLoop(top, end int32) {
	g.loopTop = append(g.loopTop, top)
	g.loopEnd = append(g.loopEnd, end)
}

func (g *gen) popLoop() {
	g.loopTop = g.loopTop[:len(g.loopTop)-1]
	g.loopEnd = g.loopEnd[:len(g.loopEnd)-1]
}

func (g *gen) ifStmt(s *lang.IfStmt) error {
	cond, err := g.expr(s.Cond)
	if err != nil {
		return err
	}
	thenB := g.newBlock()
	elseB := g.newBlock()
	doneB := g.newBlock()
	g.emit(ir.Instr{Op: ir.OpBr, A: cond, Blk: [2]int32{thenB, elseB}, ID: -1, Dst: -1, B: -1})
	g.setBlock(thenB)
	if err := g.block(s.Then); err != nil {
		return err
	}
	if !g.terminated() {
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{doneB}, ID: -1, Dst: -1, A: -1, B: -1})
	}
	g.setBlock(elseB)
	if s.Else != nil {
		if err := g.stmt(s.Else); err != nil {
			return err
		}
	}
	if !g.terminated() {
		g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{doneB}, ID: -1, Dst: -1, A: -1, B: -1})
	}
	g.setBlock(doneB)
	return nil
}

// storeVar emits addr computation + store for a scalar variable.
func (g *gen) storeVar(sym *lang.Symbol, pos lang.Pos, val int32) error {
	s, ok := g.slots[sym]
	if !ok {
		return fmt.Errorf("%s: no storage for %q", pos, sym.Name)
	}
	addr := g.newReg()
	if s.global {
		g.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
	} else {
		g.emit(ir.Instr{Op: ir.OpFrameAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
	}
	id := g.track(pos, sym.Name, ir.OpStore, 0, s.typ)
	g.emit(ir.Instr{Op: ir.OpStore, Type: s.typ, A: addr, B: val, ID: id, Dst: -1})
	return nil
}

// indexAddr lowers the address computation of A[i] / A[i][j].
func (g *gen) indexAddr(e *lang.IndexExpr) (addr int32, et ir.Type, err error) {
	sym := g.chk.Symbols[e.Arr]
	s, ok := g.slots[sym]
	if !ok {
		return 0, 0, fmt.Errorf("%s: no storage for %q", e.Position(), sym.Name)
	}
	base := g.newReg()
	if s.global {
		g.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: base, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
	} else {
		g.emit(ir.Instr{Op: ir.OpFrameAddr, Dst: base, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
	}
	idx, err := g.expr(e.Indices[0])
	if err != nil {
		return 0, 0, err
	}
	if len(e.Indices) == 2 {
		// linear = i*dim1 + j
		dim1 := g.newReg()
		g.emit(ir.Instr{Op: ir.OpConst, Type: ir.I64, Dst: dim1, Imm: uint64(s.dims[1]), ID: -1, A: -1, B: -1})
		mul := g.newReg()
		g.emit(ir.Instr{Op: ir.OpBin, Kind: uint8(ir.BinMul), Type: ir.I64, Dst: mul, A: idx, B: dim1, ID: -1})
		j, err := g.expr(e.Indices[1])
		if err != nil {
			return 0, 0, err
		}
		lin := g.newReg()
		g.emit(ir.Instr{Op: ir.OpBin, Kind: uint8(ir.BinAdd), Type: ir.I64, Dst: lin, A: mul, B: j, ID: -1})
		idx = lin
	}
	out := g.newReg()
	g.emit(ir.Instr{Op: ir.OpAddrIndex, Dst: out, A: base, B: idx, Imm: uint64(s.typ.Size()), ID: -1})
	return out, s.typ, nil
}

// expr lowers an expression, returning the register holding its value.
func (g *gen) expr(e lang.Expr) (int32, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		t := ir.TypeFromLang(e.TypeOf().Kind)
		dst := g.newReg()
		id := g.track(e.Position(), exprText(e), ir.OpConst, 0, t)
		g.m.Registry[id].Const = float64(e.Value)
		g.emit(ir.Instr{Op: ir.OpConst, Type: t, Dst: dst, Imm: constBits(t, float64(e.Value), e.Value), ID: id, A: -1, B: -1})
		return dst, nil
	case *lang.FloatLit:
		t := ir.TypeFromLang(e.TypeOf().Kind)
		dst := g.newReg()
		id := g.track(e.Position(), e.Text, ir.OpConst, 0, t)
		g.m.Registry[id].Const = e.Value
		g.emit(ir.Instr{Op: ir.OpConst, Type: t, Dst: dst, Imm: constBits(t, e.Value, int64(e.Value)), ID: id, A: -1, B: -1})
		return dst, nil
	case *lang.BoolLit:
		dst := g.newReg()
		var imm uint64
		if e.Value {
			imm = 1
		}
		g.emit(ir.Instr{Op: ir.OpConst, Type: ir.Bool, Dst: dst, Imm: imm, ID: -1, A: -1, B: -1})
		return dst, nil
	case *lang.Ident:
		sym := g.chk.Symbols[e]
		s, ok := g.slots[sym]
		if !ok {
			return 0, fmt.Errorf("%s: no storage for %q", e.Position(), e.Name)
		}
		addr := g.newReg()
		if s.global {
			g.emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
		} else {
			g.emit(ir.Instr{Op: ir.OpFrameAddr, Dst: addr, Imm: uint64(s.addr), ID: -1, A: -1, B: -1})
		}
		dst := g.newReg()
		id := g.track(e.Position(), e.Name, ir.OpLoad, 0, s.typ)
		g.emit(ir.Instr{Op: ir.OpLoad, Type: s.typ, Dst: dst, A: addr, ID: id, B: -1})
		return dst, nil
	case *lang.IndexExpr:
		addr, et, err := g.indexAddr(e)
		if err != nil {
			return 0, err
		}
		dst := g.newReg()
		id := g.track(e.Position(), exprText(e), ir.OpLoad, 0, et)
		g.emit(ir.Instr{Op: ir.OpLoad, Type: et, Dst: dst, A: addr, ID: id, B: -1})
		return dst, nil
	case *lang.UnaryExpr:
		x, err := g.expr(e.X)
		if err != nil {
			return 0, err
		}
		t := ir.TypeFromLang(e.TypeOf().Kind)
		kind := ir.UnNeg
		if e.Op == lang.Not {
			kind = ir.UnNot
		}
		dst := g.newReg()
		id := int32(-1)
		if t.IsNumeric() {
			id = g.track(e.Position(), exprText(e), ir.OpUn, uint8(kind), t)
		}
		g.emit(ir.Instr{Op: ir.OpUn, Kind: uint8(kind), Type: t, Dst: dst, A: x, ID: id, B: -1})
		return dst, nil
	case *lang.BinaryExpr:
		return g.binary(e)
	case *lang.CallExpr:
		return g.call(e)
	case *lang.StringLit:
		return 0, fmt.Errorf("%s: unexpected string literal", e.Position())
	}
	return 0, fmt.Errorf("unhandled expression %T", e)
}

func (g *gen) binary(e *lang.BinaryExpr) (int32, error) {
	switch e.Op {
	case lang.AndAnd, lang.OrOr:
		return g.shortCircuit(e)
	}
	l, err := g.expr(e.L)
	if err != nil {
		return 0, err
	}
	r, err := g.expr(e.R)
	if err != nil {
		return 0, err
	}
	opt := ir.TypeFromLang(e.L.TypeOf().Kind)
	dst := g.newReg()
	switch e.Op {
	case lang.Plus, lang.Minus, lang.Star, lang.Slash, lang.Percent:
		var k ir.BinKind
		switch e.Op {
		case lang.Plus:
			k = ir.BinAdd
		case lang.Minus:
			k = ir.BinSub
		case lang.Star:
			k = ir.BinMul
		case lang.Slash:
			k = ir.BinDiv
		case lang.Percent:
			k = ir.BinRem
		}
		id := int32(-1)
		if opt.IsNumeric() {
			id = g.track(e.Position(), exprText(e), ir.OpBin, uint8(k), opt)
		}
		g.emit(ir.Instr{Op: ir.OpBin, Kind: uint8(k), Type: opt, Dst: dst, A: l, B: r, ID: id})
		return dst, nil
	default:
		var p ir.CmpPred
		switch e.Op {
		case lang.Eq:
			p = ir.CmpEq
		case lang.Ne:
			p = ir.CmpNe
		case lang.Lt:
			p = ir.CmpLt
		case lang.Le:
			p = ir.CmpLe
		case lang.Gt:
			p = ir.CmpGt
		case lang.Ge:
			p = ir.CmpGe
		}
		id := int32(-1)
		if opt.IsNumeric() {
			id = g.track(e.Position(), exprText(e), ir.OpCmp, uint8(p), opt)
		}
		g.emit(ir.Instr{Op: ir.OpCmp, Kind: uint8(p), Type: opt, Dst: dst, A: l, B: r, ID: id})
		return dst, nil
	}
}

// shortCircuit lowers && and || with proper control flow.
func (g *gen) shortCircuit(e *lang.BinaryExpr) (int32, error) {
	res := g.newReg()
	var preset uint64
	if e.Op == lang.OrOr {
		preset = 1
	}
	g.emit(ir.Instr{Op: ir.OpConst, Type: ir.Bool, Dst: res, Imm: preset, ID: -1, A: -1, B: -1})
	l, err := g.expr(e.L)
	if err != nil {
		return 0, err
	}
	right := g.newBlock()
	done := g.newBlock()
	if e.Op == lang.AndAnd {
		g.emit(ir.Instr{Op: ir.OpBr, A: l, Blk: [2]int32{right, done}, ID: -1, Dst: -1, B: -1})
	} else {
		g.emit(ir.Instr{Op: ir.OpBr, A: l, Blk: [2]int32{done, right}, ID: -1, Dst: -1, B: -1})
	}
	g.setBlock(int32(right))
	r, err := g.expr(e.R)
	if err != nil {
		return 0, err
	}
	g.emit(ir.Instr{Op: ir.OpMov, Type: ir.Bool, Dst: res, A: r, ID: -1, B: -1})
	g.emit(ir.Instr{Op: ir.OpJmp, Blk: [2]int32{done}, ID: -1, Dst: -1, A: -1, B: -1})
	g.setBlock(int32(done))
	return res, nil
}

func (g *gen) call(e *lang.CallExpr) (int32, error) {
	if e.IsCast {
		return g.cast(e)
	}
	if e.IsBuiltin {
		return g.builtin(e)
	}
	var args []int32
	for _, a := range e.Args {
		r, err := g.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, r)
	}
	fnIdx := g.m.FuncIdx[e.Name]
	rt := ir.TypeFromLang(e.TypeOf().Kind)
	dst := int32(-1)
	if rt != ir.Void {
		dst = g.newReg()
	}
	id := g.track(e.Position(), e.Name+"(…)", ir.OpCall, 0, rt)
	g.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Fn: fnIdx, Args: args, Type: rt, ID: id, A: -1, B: -1})
	if dst < 0 {
		return 0, nil
	}
	return dst, nil
}

func (g *gen) cast(e *lang.CallExpr) (int32, error) {
	x, err := g.expr(e.Args[0])
	if err != nil {
		return 0, err
	}
	from := ir.TypeFromLang(e.Args[0].TypeOf().Kind)
	to := ir.TypeFromLang(e.TypeOf().Kind)
	dst := g.newReg()
	id := int32(-1)
	if from.IsNumeric() || to.IsNumeric() {
		id = g.track(e.Position(), exprText(e), ir.OpCast, 0, to)
	}
	g.emit(ir.Instr{Op: ir.OpCast, Type: from, Type2: to, Dst: dst, A: x, ID: id, B: -1})
	return dst, nil
}

func (g *gen) builtin(e *lang.CallExpr) (int32, error) {
	switch e.Builtin {
	case lang.BSqrt, lang.BAbs:
		x, err := g.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		t := ir.TypeFromLang(e.TypeOf().Kind)
		kind := ir.UnSqrt
		if e.Builtin == lang.BAbs {
			kind = ir.UnAbs
		}
		dst := g.newReg()
		id := int32(-1)
		if t.IsNumeric() {
			id = g.track(e.Position(), exprText(e), ir.OpUn, uint8(kind), t)
		}
		g.emit(ir.Instr{Op: ir.OpUn, Kind: uint8(kind), Type: t, Dst: dst, A: x, ID: id, B: -1})
		return dst, nil
	case lang.BPrint:
		if s, ok := e.Args[0].(*lang.StringLit); ok {
			g.emit(ir.Instr{Op: ir.OpPrintStr, Str: s.Value, ID: -1, Dst: -1, A: -1, B: -1})
			return 0, nil
		}
		x, err := g.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		t := ir.TypeFromLang(e.Args[0].TypeOf().Kind)
		id := int32(-1)
		if t.IsNumeric() {
			id = g.track(e.Position(), exprText(e.Args[0]), ir.OpPrint, 0, t)
		}
		g.emit(ir.Instr{Op: ir.OpPrint, Type: t, A: x, ID: id, Dst: -1, B: -1})
		return 0, nil
	case lang.BQClear:
		g.emit(ir.Instr{Op: ir.OpQClear, ID: -1, Dst: -1, A: -1, B: -1})
		return 0, nil
	case lang.BQAdd, lang.BQSub:
		x, err := g.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		t := ir.TypeFromLang(e.Args[0].TypeOf().Kind)
		var neg uint8
		if e.Builtin == lang.BQSub {
			neg = 1
		}
		g.emit(ir.Instr{Op: ir.OpQAdd, Kind: neg, Type: t, A: x, ID: -1, Dst: -1, B: -1})
		return 0, nil
	case lang.BQMAdd, lang.BQMSub:
		x, err := g.expr(e.Args[0])
		if err != nil {
			return 0, err
		}
		y, err := g.expr(e.Args[1])
		if err != nil {
			return 0, err
		}
		t := ir.TypeFromLang(e.Args[0].TypeOf().Kind)
		var neg uint8
		if e.Builtin == lang.BQMSub {
			neg = 1
		}
		g.emit(ir.Instr{Op: ir.OpQMAdd, Kind: neg, Type: t, A: x, B: y, ID: -1, Dst: -1})
		return 0, nil
	case lang.BQRound:
		t := ir.TypeFromLang(e.TypeOf().Kind)
		dst := g.newReg()
		id := g.track(e.Position(), e.Name+"()", ir.OpQVal, 0, t)
		g.emit(ir.Instr{Op: ir.OpQVal, Type: t, Dst: dst, ID: id, A: -1, B: -1})
		return dst, nil
	case lang.BFMA:
		var args []int32
		for _, a := range e.Args {
			r, err := g.expr(a)
			if err != nil {
				return 0, err
			}
			args = append(args, r)
		}
		t := ir.TypeFromLang(e.TypeOf().Kind)
		dst := g.newReg()
		id := g.track(e.Position(), exprText(e), ir.OpFMA, 0, t)
		g.emit(ir.Instr{Op: ir.OpFMA, Type: t, Dst: dst, Args: args, ID: id, A: -1, B: -1})
		return dst, nil
	}
	return 0, fmt.Errorf("%s: unhandled builtin", e.Position())
}

// constBits encodes a literal as the bit pattern of the target type.
func constBits(t ir.Type, f float64, i int64) uint64 {
	switch t {
	case ir.I64:
		return uint64(i)
	case ir.F64:
		return math.Float64bits(f)
	case ir.F32:
		return uint64(math.Float32bits(float32(f)))
	case ir.P8, ir.P16, ir.P32:
		return uint64(t.PositConfig().FromFloat64(f))
	default:
		return uint64(i)
	}
}
