package interp

import "positdebug/internal/ir"

// Hooks receives shadow-execution events. The instrumentation pass inserts
// explicit shadow instructions into the IR; when the machine executes one it
// calls the corresponding method with the instruction id (an index into the
// module registry), the registers involved, and their current bit-pattern
// values. internal/shadow implements the PositDebug/FPSanitizer runtime on
// this interface and internal/herbgrind implements the trace-heavy baseline.
//
// A nil Hooks on the machine makes shadow instructions no-ops, but the
// normal configuration runs uninstrumented modules for baselines (zero
// overhead) and instrumented modules with a runtime attached.
type Hooks interface {
	// Reset is called at the start of every Machine.Run.
	Reset()
	// EnterFunc is called when an instrumented function's frame is pushed;
	// argVals holds the parameter values (registers 0..n−1).
	EnterFunc(fn *ir.Func, argVals []uint64)
	// LeaveFunc is called when the frame is popped.
	LeaveFunc()
	// Const: register dst was set to the literal bits of type typ.
	Const(id int32, typ ir.Type, dst int32, bits uint64)
	// Mov: register dst was copied from src.
	Mov(id int32, typ ir.Type, dst, src int32, bits uint64)
	// Bin: dst = a <kind> b just executed; values are the current contents.
	Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64)
	// Un: dst = <kind> a.
	Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64)
	// Cmp: a <pred> b evaluated to outcome on numeric operands.
	Cmp(id int32, pred ir.CmpPred, typ ir.Type, a, b int32, aVal, bVal uint64, outcome bool)
	// Cast: dst = cast a from type `from` to type `to`.
	Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64)
	// Load: dst was loaded from memory address addr.
	Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64)
	// Store: the value of register src was stored to addr.
	Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64)
	// PreCall: about to call callee with the given argument registers.
	PreCall(callee *ir.Func, args []int32, argVals []uint64)
	// PostCall: callee returned; its value (if any) landed in register dst.
	PostCall(id int32, typ ir.Type, dst int32, bits uint64)
	// Ret: the current function is about to return register src.
	Ret(typ ir.Type, src int32, bits uint64)
	// Print: the program printed the value of register src.
	Print(id int32, typ ir.Type, src int32, bits uint64)
	// FMA: dst = a·b + c with a single rounding just executed.
	FMA(id int32, typ ir.Type, dst, a, b, c int32, dstVal, aVal, bVal, cVal uint64)
	// QClear/QAdd/QMAdd/QVal mirror the quire operations (negate: Kind=1).
	QClear(typ ir.Type)
	QAdd(typ ir.Type, a int32, aVal uint64, negate bool)
	QMAdd(typ ir.Type, a, b int32, aVal, bVal uint64, negate bool)
	QVal(id int32, typ ir.Type, dst int32, bits uint64)
}

// Injector mutates architectural state — the mechanism behind fault
// injection. A machine with an Injector (Machine.Injector) resets it at the
// start of every run and consults Mutate immediately before each
// value-producing shadow event (const, bin, un, cast, load, store,
// post-call, qval, fma) with the instruction's registry id, opcode, type
// and the destination's current bits. Returning (newBits, true) rewrites
// the destination register — or, for stores, the stored memory bytes —
// before the event is delivered to the hooks, so the shadow runtime
// observes the corrupted program value against its clean high-precision
// shadow and can flag the divergence.
//
// Injection therefore only reaches instrumented instructions; register
// moves and comparisons are deliberately excluded (corrupting them would
// re-seed the shadow from the corrupted value and blind the oracle).
// Events whose hooks propagate metadata rather than recompute it — loads,
// stores, call returns — carry the same re-seed hazard, so after every hit
// the machine announces the corruption to hooks implementing
// InjectionObserver before it delivers the corrupted event.
//
// Every event an injector may corrupt reaches its Hooks method on both
// backends, whether or not an injector is live. After each hit the machine
// asks Spent; once it reports true, neither backend consults the injector
// again until the next run.
type Injector interface {
	// Reset is called at the start of every Machine.Run, so a rerun (or a
	// precision-degraded retry) replays the same schedule.
	Reset()
	Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (mutated uint64, inject bool)
	// Spent reports that Mutate will corrupt nothing more this run, so the
	// machine may stop calling it. It is asked only right after a hit; an
	// injector that must observe every eligible event returns false.
	Spent() bool
}

// InjectionObserver is an optional interface Hooks may implement to be
// told, immediately before the corresponding event fires, that the value
// it is about to observe was corrupted by the machine's Injector: before
// is the pre-corruption bit pattern, after the corrupted bits the event
// will deliver. The shadow runtime uses the announcement to keep its clean
// metadata as the reference — flagging the divergence — instead of
// mistaking the corruption for an uninstrumented write and re-seeding the
// shadow from it.
type InjectionObserver interface {
	ObserveInjection(id int32, op ir.Op, typ ir.Type, before, after uint64)
}

// NopHooks is the no-op Hooks implementation installed automatically when
// an instrumented module runs without a runtime attached: shadow
// instructions execute but observe nothing.
type NopHooks struct{}

var _ Hooks = NopHooks{}

// Reset implements Hooks.
func (NopHooks) Reset() {}

// EnterFunc implements Hooks.
func (NopHooks) EnterFunc(fn *ir.Func, argVals []uint64) {}

// LeaveFunc implements Hooks.
func (NopHooks) LeaveFunc() {}

// Const implements Hooks.
func (NopHooks) Const(id int32, typ ir.Type, dst int32, bits uint64) {}

// Mov implements Hooks.
func (NopHooks) Mov(id int32, typ ir.Type, dst, src int32, bits uint64) {}

// Bin implements Hooks.
func (NopHooks) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
}

// Un implements Hooks.
func (NopHooks) Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {}

// Cmp implements Hooks.
func (NopHooks) Cmp(id int32, pred ir.CmpPred, typ ir.Type, a, b int32, aVal, bVal uint64, outcome bool) {
}

// Cast implements Hooks.
func (NopHooks) Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {}

// Load implements Hooks.
func (NopHooks) Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {}

// Store implements Hooks.
func (NopHooks) Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {}

// PreCall implements Hooks.
func (NopHooks) PreCall(callee *ir.Func, args []int32, argVals []uint64) {}

// PostCall implements Hooks.
func (NopHooks) PostCall(id int32, typ ir.Type, dst int32, bits uint64) {}

// Ret implements Hooks.
func (NopHooks) Ret(typ ir.Type, src int32, bits uint64) {}

// Print implements Hooks.
func (NopHooks) Print(id int32, typ ir.Type, src int32, bits uint64) {}

// FMA implements Hooks.
func (NopHooks) FMA(id int32, typ ir.Type, dst, a, b, c int32, dstVal, aVal, bVal, cVal uint64) {}

// QClear implements Hooks.
func (NopHooks) QClear(typ ir.Type) {}

// QAdd implements Hooks.
func (NopHooks) QAdd(typ ir.Type, a int32, aVal uint64, negate bool) {}

// QMAdd implements Hooks.
func (NopHooks) QMAdd(typ ir.Type, a, b int32, aVal, bVal uint64, negate bool) {}

// QVal implements Hooks.
func (NopHooks) QVal(id int32, typ ir.Type, dst int32, bits uint64) {}
