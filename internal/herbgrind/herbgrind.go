// Package herbgrind implements a Herbgrind-style shadow-execution baseline
// for the comparison in §5.4 of the paper. Like Herbgrind (Sanchez-Stern et
// al., PLDI 2018), it keeps high-precision shadow values AND, for every
// dynamic numeric instruction, a freshly allocated trace node linked to its
// operands' traces; memory locations hold the full trace of the value
// stored in them. Nothing bounds the trace metadata, so its footprint grows
// with the number of dynamic instructions — the design decision that makes
// Herbgrind an order of magnitude slower than FPSanitizer and infeasible on
// long-running programs, which is exactly the contrast the benchmark
// harness measures.
package herbgrind

import (
	"math"
	"math/big"

	"positdebug/internal/bigfp"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/ulp"
)

// TraceNode is one dynamic instruction in the unbounded trace metadata.
type TraceNode struct {
	Inst int32
	Op   string
	Args []*TraceNode
}

// influence is the set of static instructions that contributed to a value.
// Herbgrind maintains such "influence bags" per shadow value and unions
// them on every operation; the copies are a major component of its cost.
type influence map[int32]struct{}

func (in influence) union(other influence, extra int32) influence {
	out := make(influence, len(in)+len(other)+1)
	for k := range in {
		out[k] = struct{}{}
	}
	for k := range other {
		out[k] = struct{}{}
	}
	if extra >= 0 {
		out[extra] = struct{}{}
	}
	return out
}

// meta is the per-temporary shadow state. Metadata is copied field by field
// (assign), never by struct assignment, which would share real's words.
type meta struct {
	real    bigfp.Float
	undef   bool
	trace   *TraceNode
	infl    influence
	written bool
}

type frame struct {
	temps []meta
}

// Runtime implements interp.Hooks with Herbgrind-style metadata.
type Runtime struct {
	mod *ir.Module
	ctx *bigfp.Context

	frames   []*frame
	mem      map[uint32]*meta
	argStack []meta
	retMeta  meta
	retValid bool
	quires   map[ir.Type]*big.Float

	// history pins every dynamic trace node, reproducing Herbgrind's
	// metadata-space growth proportional to dynamic instruction count.
	history []*TraceNode
	// repr holds the per-static-instruction representative (generalized)
	// expression; every dynamic execution anti-unifies its concrete trace
	// into it, Herbgrind's core abstraction step.
	repr map[int32]*TraceNode
	// maxLocal/maxGlobal aggregate per-static-instruction error, mirroring
	// Herbgrind's per-op local-vs-global error attribution.
	maxLocal  map[int32]int
	maxGlobal map[int32]int
	scratchA  bigfp.Float
	scratchB  bigfp.Float
	scratchR  bigfp.Float
	// qa, qb and qProd bridge shadow values into the 768-bit quires.
	qa, qb, qProd big.Float

	totalOps uint64
}

var _ interp.Hooks = (*Runtime)(nil)

// New returns a Herbgrind-style runtime with the given shadow precision.
func New(mod *ir.Module, precision uint) *Runtime {
	return &Runtime{
		mod:       mod,
		ctx:       bigfp.New(precision),
		mem:       map[uint32]*meta{},
		quires:    map[ir.Type]*big.Float{},
		repr:      map[int32]*TraceNode{},
		maxLocal:  map[int32]int{},
		maxGlobal: map[int32]int{},
	}
}

// TraceNodes reports the number of accumulated dynamic trace nodes.
func (r *Runtime) TraceNodes() int { return len(r.history) }

// TotalOps reports shadowed operations.
func (r *Runtime) TotalOps() uint64 { return r.totalOps }

// Reset clears all state.
func (r *Runtime) Reset() {
	r.frames = r.frames[:0]
	r.mem = map[uint32]*meta{}
	r.argStack = r.argStack[:0]
	r.retValid = false
	r.quires = map[ir.Type]*big.Float{}
	r.history = nil
	r.repr = map[int32]*TraceNode{}
	r.maxLocal = map[int32]int{}
	r.maxGlobal = map[int32]int{}
	r.totalOps = 0
}

func (r *Runtime) cur() *frame { return r.frames[len(r.frames)-1] }

func (r *Runtime) newTrace(inst int32, op string, args ...*TraceNode) *TraceNode {
	n := &TraceNode{Inst: inst, Op: op, Args: args}
	r.history = append(r.history, n)
	return n
}

// updateRepr anti-unifies the concrete trace of a dynamic execution into
// the static instruction's representative expression — Herbgrind's
// abstract-expression update, performed on every dynamic operation. The
// walk is bounded per update, but representatives are rebuilt (allocated)
// each time, which is the second major component of Herbgrind's cost.
func (r *Runtime) updateRepr(id int32, concrete *TraceNode) {
	budget := 512
	r.repr[id] = antiUnify(r.repr[id], concrete, &budget)
}

func antiUnify(a, b *TraceNode, budget *int) *TraceNode {
	if *budget <= 0 {
		return &TraceNode{Op: "…"}
	}
	*budget--
	if a == nil {
		return copyTree(b, budget)
	}
	if b == nil || a.Op != b.Op || len(a.Args) != len(b.Args) {
		return &TraceNode{Op: "?"}
	}
	n := &TraceNode{Inst: a.Inst, Op: a.Op}
	if len(a.Args) > 0 {
		n.Args = make([]*TraceNode, len(a.Args))
		for i := range a.Args {
			n.Args[i] = antiUnify(a.Args[i], b.Args[i], budget)
		}
	}
	return n
}

func copyTree(b *TraceNode, budget *int) *TraceNode {
	if b == nil || *budget <= 0 {
		return &TraceNode{Op: "…"}
	}
	*budget--
	n := &TraceNode{Inst: b.Inst, Op: b.Op}
	if len(b.Args) > 0 {
		n.Args = make([]*TraceNode, len(b.Args))
		for i := range b.Args {
			n.Args[i] = copyTree(b.Args[i], budget)
		}
	}
	return n
}

// ReprSize reports the total nodes across representative expressions.
func (r *Runtime) ReprSize() int {
	total := 0
	for _, n := range r.repr {
		total += treeSize(n)
	}
	return total
}

func treeSize(n *TraceNode) int {
	if n == nil {
		return 0
	}
	s := 1
	for _, k := range n.Args {
		s += treeSize(k)
	}
	return s
}

// EnterFunc pushes a frame and binds arguments.
func (r *Runtime) EnterFunc(fn *ir.Func, argVals []uint64) {
	f := &frame{temps: make([]meta, fn.NumRegs)}
	r.frames = append(r.frames, f)
	n := len(fn.Params)
	if len(r.argStack) >= n && n > 0 {
		base := len(r.argStack) - n
		for i := 0; i < n; i++ {
			if fn.Params[i].IsNumeric() && r.argStack[base+i].written {
				r.assign(&f.temps[i], &r.argStack[base+i])
			} else if fn.Params[i].IsNumeric() {
				r.seed(&f.temps[i], fn.Params[i], argVals[i])
			}
		}
		r.argStack = r.argStack[:base]
		return
	}
	for i := 0; i < n && i < len(argVals); i++ {
		if fn.Params[i].IsNumeric() {
			r.seed(&f.temps[i], fn.Params[i], argVals[i])
		}
	}
}

// LeaveFunc pops the frame (its traces stay pinned in history, as in
// Herbgrind).
func (r *Runtime) LeaveFunc() { r.frames = r.frames[:len(r.frames)-1] }

func (r *Runtime) seed(m *meta, typ ir.Type, bits uint64) {
	f := interp.ToFloat64(typ, bits)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		m.undef = true
		r.ctx.SetInt64(&m.real, 0)
	} else {
		m.undef = false
		r.ctx.SetFloat64(&m.real, f)
	}
	m.trace = r.newTrace(-1, "value")
	m.infl = influence{}
	m.written = true
}

func (r *Runtime) ensure(reg int32, typ ir.Type, bits uint64) *meta {
	m := &r.cur().temps[reg]
	if !m.written {
		r.seed(m, typ, bits)
	}
	return m
}

// Const seeds a literal.
func (r *Runtime) Const(id int32, typ ir.Type, dst int32, bits uint64) {
	m := &r.cur().temps[dst]
	r.ctx.SetFloat64(&m.real, r.mod.Meta(id).Const)
	m.undef = false
	m.trace = r.newTrace(id, "const")
	m.infl = influence{id: struct{}{}}
	m.written = true
	r.totalOps++
}

// Mov copies metadata.
func (r *Runtime) Mov(id int32, typ ir.Type, dst, src int32, bits uint64) {
	s := r.ensure(src, typ, bits)
	r.assign(&r.cur().temps[dst], s)
}

// assign copies s's metadata into d.
func (r *Runtime) assign(d, s *meta) {
	r.ctx.Set(&d.real, &s.real)
	d.undef = s.undef
	d.trace = s.trace
	d.infl = s.infl
	d.written = true
}

// Bin performs the shadow operation and allocates the trace node.
func (r *Runtime) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	d := &r.cur().temps[dst]
	undef := ta.undef || tb.undef
	if !undef {
		switch kind {
		case ir.BinAdd:
			r.ctx.Add(&d.real, &ta.real, &tb.real)
		case ir.BinSub:
			r.ctx.Sub(&d.real, &ta.real, &tb.real)
		case ir.BinMul:
			r.ctx.Mul(&d.real, &ta.real, &tb.real)
		case ir.BinDiv:
			undef = r.ctx.Div(&d.real, &ta.real, &tb.real)
		}
	}
	d.undef = undef
	d.trace = r.newTrace(id, kind.String(), ta.trace, tb.trace)
	d.infl = ta.infl.union(tb.infl, id)
	r.updateRepr(id, d.trace)
	if !undef {
		r.attributeError(id, kind, typ, dstVal, aVal, bVal, &d.real)
	}
	d.written = true
	r.totalOps++
}

// attributeError performs Herbgrind's local-vs-global error split: the
// operation is re-executed with the *rounded* (program) operand values to
// obtain the locally exact result; its distance to the program result is
// the local error, while the distance to the fully shadowed result is the
// global error. Two extra high-precision operations and two ULP
// computations per dynamic instruction.
func (r *Runtime) attributeError(id int32, kind ir.BinKind, typ ir.Type, dstVal, aVal, bVal uint64, global *bigfp.Float) {
	av := interp.ToFloat64(typ, aVal)
	bv := interp.ToFloat64(typ, bVal)
	dv := interp.ToFloat64(typ, dstVal)
	if math.IsNaN(av) || math.IsNaN(bv) || math.IsNaN(dv) ||
		math.IsInf(av, 0) || math.IsInf(bv, 0) || math.IsInf(dv, 0) {
		return
	}
	r.ctx.SetFloat64(&r.scratchA, av)
	r.ctx.SetFloat64(&r.scratchB, bv)
	ok := true
	switch kind {
	case ir.BinAdd:
		r.ctx.Add(&r.scratchR, &r.scratchA, &r.scratchB)
	case ir.BinSub:
		r.ctx.Sub(&r.scratchR, &r.scratchA, &r.scratchB)
	case ir.BinMul:
		r.ctx.Mul(&r.scratchR, &r.scratchA, &r.scratchB)
	case ir.BinDiv:
		ok = !r.ctx.Div(&r.scratchR, &r.scratchA, &r.scratchB)
	}
	if !ok {
		return
	}
	local := ulp.Bits(ulp.Distance(dv, r.scratchR.Float64()))
	glob := ulp.Bits(ulp.Distance(dv, global.Float64()))
	if local > r.maxLocal[id] {
		r.maxLocal[id] = local
	}
	if glob > r.maxGlobal[id] {
		r.maxGlobal[id] = glob
	}
}

// Un performs the shadow unary operation.
func (r *Runtime) Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {
	ta := r.ensure(a, typ, aVal)
	d := &r.cur().temps[dst]
	undef := ta.undef
	if !undef {
		switch kind {
		case ir.UnNeg:
			r.ctx.Neg(&d.real, &ta.real)
		case ir.UnAbs:
			r.ctx.Abs(&d.real, &ta.real)
		case ir.UnSqrt:
			undef = r.ctx.Sqrt(&d.real, &ta.real)
		default:
			r.ctx.Set(&d.real, &ta.real)
		}
	}
	d.undef = undef
	d.trace = r.newTrace(id, kind.String(), ta.trace)
	d.infl = ta.infl.union(nil, id)
	r.updateRepr(id, d.trace)
	d.written = true
	r.totalOps++
}

// Cmp evaluates the shadow comparison (Herbgrind also watches branches).
func (r *Runtime) Cmp(id int32, pred ir.CmpPred, typ ir.Type, a, b int32, aVal, bVal uint64, outcome bool) {
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	if ta.undef || tb.undef {
		return
	}
	_ = ta.real.Cmp(&tb.real)
	r.newTrace(id, pred.String(), ta.trace, tb.trace)
	r.totalOps++
}

// Cast propagates through conversions.
func (r *Runtime) Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	if !from.IsNumeric() && !to.IsNumeric() {
		return
	}
	d := &r.cur().temps[dst]
	if from.IsNumeric() {
		s := r.ensure(src, from, srcVal)
		if to == ir.I64 {
			r.newTrace(id, "toint", s.trace)
			return
		}
		r.ctx.Set(&d.real, &s.real)
		d.undef = s.undef
		d.trace = r.newTrace(id, "cast", s.trace)
		d.infl = s.infl
		d.written = true
		return
	}
	r.ctx.SetInt64(&d.real, int64(srcVal))
	d.undef = false
	d.trace = r.newTrace(id, "fromint")
	d.written = true
}

// Load pulls the full trace from memory metadata.
func (r *Runtime) Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {
	d := &r.cur().temps[dst]
	mm, ok := r.mem[addr]
	if !ok {
		r.seed(d, typ, bits)
		return
	}
	r.assign(d, mm)
}

// Store writes the full trace into memory metadata.
func (r *Runtime) Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {
	s := r.ensure(src, typ, bits)
	mm, ok := r.mem[addr]
	if !ok {
		mm = &meta{}
		r.mem[addr] = mm
	}
	r.assign(mm, s)
}

// PreCall pushes argument metadata.
func (r *Runtime) PreCall(callee *ir.Func, args []int32, argVals []uint64) {
	for i, reg := range args {
		r.argStack = append(r.argStack, meta{})
		if callee.Params[i].IsNumeric() {
			r.assign(&r.argStack[len(r.argStack)-1], r.ensure(reg, callee.Params[i], argVals[i]))
		}
	}
}

// Ret records the returned metadata.
func (r *Runtime) Ret(typ ir.Type, src int32, bits uint64) {
	r.retValid = false
	if src < 0 || !typ.IsNumeric() {
		return
	}
	r.assign(&r.retMeta, r.ensure(src, typ, bits))
	r.retValid = true
}

// PostCall binds the returned metadata.
func (r *Runtime) PostCall(id int32, typ ir.Type, dst int32, bits uint64) {
	if dst < 0 || !typ.IsNumeric() {
		return
	}
	d := &r.cur().temps[dst]
	if r.retValid {
		r.assign(d, &r.retMeta)
	} else {
		r.seed(d, typ, bits)
	}
	r.retValid = false
}

// Print observes an output.
func (r *Runtime) Print(id int32, typ ir.Type, src int32, bits uint64) {
	if !typ.IsNumeric() {
		return
	}
	s := r.ensure(src, typ, bits)
	r.newTrace(id, "output", s.trace)
}

// FMA performs the fused multiply-add with full trace bookkeeping.
func (r *Runtime) FMA(id int32, typ ir.Type, dst, a, b, c int32, dstVal, aVal, bVal, cVal uint64) {
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	tc := r.ensure(c, typ, cVal)
	d := &r.cur().temps[dst]
	undef := ta.undef || tb.undef || tc.undef
	if !undef {
		r.ctx.FMA(&d.real, &ta.real, &tb.real, &tc.real)
	}
	d.undef = undef
	d.trace = r.newTrace(id, "fma", ta.trace, tb.trace, tc.trace)
	d.infl = ta.infl.union(tb.infl, id).union(tc.infl, -1)
	r.updateRepr(id, d.trace)
	d.written = true
	r.totalOps++
}

// QClear resets the shadow quires.
func (r *Runtime) QClear(typ ir.Type) {
	for _, q := range r.quires {
		q.SetInt64(0)
	}
}

func (r *Runtime) squire(typ ir.Type) *big.Float {
	q, ok := r.quires[typ]
	if !ok {
		q = new(big.Float).SetPrec(768)
		r.quires[typ] = q
	}
	return q
}

// QAdd mirrors quire accumulation.
func (r *Runtime) QAdd(typ ir.Type, a int32, aVal uint64, negate bool) {
	q := r.squire(typ)
	r.ctx.Big(&r.qa, &r.ensure(a, typ, aVal).real)
	if negate {
		q.Sub(q, &r.qa)
	} else {
		q.Add(q, &r.qa)
	}
}

// QMAdd mirrors fused multiply-accumulate.
func (r *Runtime) QMAdd(typ ir.Type, a, b int32, aVal, bVal uint64, negate bool) {
	q := r.squire(typ)
	ta := r.ensure(a, typ, aVal)
	tb := r.ensure(b, typ, bVal)
	r.qProd.SetPrec(768).Mul(r.ctx.Big(&r.qa, &ta.real), r.ctx.Big(&r.qb, &tb.real))
	if negate {
		q.Sub(q, &r.qProd)
	} else {
		q.Add(q, &r.qProd)
	}
}

// QVal binds the rounded quire value.
func (r *Runtime) QVal(id int32, typ ir.Type, dst int32, bits uint64) {
	d := &r.cur().temps[dst]
	r.ctx.SetBig(&d.real, r.squire(typ))
	d.trace = r.newTrace(id, "qval")
	d.written = true
	r.totalOps++
}
