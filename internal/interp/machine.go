// Package interp executes IR modules on a simple abstract machine: virtual
// registers hold uint64 bit patterns, and a single linear byte-addressed
// memory holds globals (at ir.Module.GlobalBase) and the runtime stack
// (growing down from the top). Real addresses are what make the paper's
// shadow-memory design — a trie keyed by address — meaningful, which is why
// the substrate is an interpreter rather than closures.
//
// An uninstrumented module executes with no shadow overhead; instrumented
// modules route their shadow instructions to a Hooks implementation.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/bytecode"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
)

// Default machine limits.
const (
	DefaultStackSize = 1 << 22 // 4 MiB
	DefaultMaxSteps  = 2_000_000_000
	maxCallDepth     = 1024

	// deadlineCheckMask throttles wall-clock polling to every 8192 steps —
	// cheap enough to leave on for every limited run.
	deadlineCheckMask = 1<<13 - 1
)

// Machine executes one module. Not safe for concurrent use.
type Machine struct {
	Mod   *ir.Module
	Hooks Hooks
	// Injector, when set, corrupts values at the shadow events of
	// instrumented code (fault injection; see Injector).
	Injector Injector
	Out      io.Writer // print destination; nil discards
	MaxSteps int64     // instruction budget; 0 means DefaultMaxSteps
	// Backend selects the execution engine: the fused-bytecode VM (the
	// zero value) or the tree-walking reference interpreter. Both produce
	// byte-identical observable behavior.
	Backend backend.Kind

	mem    []byte
	sp     uint32
	steps  int64
	depth  int
	quires map[ir.Type]*posit.Quire

	// chunk caches the module compiled to fused bytecode (VM backend).
	chunk *bytecode.Module
	// lowWater tracks the lowest stack byte written since the last memory
	// reset, letting VM runs zero only the dirty region. Tree-walk runs
	// poison it to "whole stack dirty".
	lowWater uint32
	// inj is the injector the current run still consults: Injector at run
	// start, nil once it reports Spent.
	inj Injector

	// Execution-position breadcrumbs for structured fault reports. The
	// tree-walker maintains curBlk/curIdx per instruction; the VM loop
	// stores only vmPC and resolves it to block/index lazily in the
	// panic-annotation path (breadcrumbs are read exclusively there).
	curFn  *ir.Func
	curBlk int32
	curIdx int
	vmPC   int

	deadline      time.Time
	checkDeadline bool
	limSteps      int64
	limTimeout    time.Duration

	// runCtx/ctxDone carry the run's context (RunContext). ctxDone is the
	// pre-fetched Done channel so the hot loop pays one nil check plus a
	// non-blocking receive every deadlineCheckMask steps, never a ctx
	// method call per instruction.
	runCtx  context.Context
	ctxDone <-chan struct{}

	argScratch []uint64
	// regPool recycles the tree-walker's register frames across calls;
	// depth is bounded by maxCallDepth, so the pool is too.
	regPool [][]uint64

	// The VM's explicit call stack: one vmFrame per live activation, each
	// owning a window of vmRegs (see vm.go). Both are reused across runs.
	vmFrames []vmFrame
	vmRegs   []uint64
	// rec is set while a run records checkpoints (checkpoint.go).
	rec *recording
}

// New returns a machine for the module with the default stack size.
func New(mod *ir.Module) *Machine {
	return NewWithStack(mod, DefaultStackSize)
}

// NewWithStack returns a machine with an explicit stack size in bytes. Its
// memory image comes from the images released by finished machines
// (Release) when one is large enough, and is freshly allocated otherwise.
func NewWithStack(mod *ir.Module, stack uint32) *Machine {
	total := imageSize(mod, stack)
	return &Machine{
		Mod:      mod,
		mem:      newImage(total),
		quires:   map[ir.Type]*posit.Quire{},
		lowWater: total, // the image is all zero: nothing dirty
	}
}

// imageSize is the size of a memory image holding mod's globals, rounded up
// to 8 bytes, then stack bytes of stack. It is computed in 64 bits: a stack
// that would run past the 32-bit address space is cut short at its end, so
// deep calls trap with a stack overflow rather than the size wrapping.
// Codegen keeps the globals themselves inside the address space.
func imageSize(mod *ir.Module, stack uint32) uint32 {
	total := (uint64(mod.GlobalBase)+uint64(mod.GlobalSize)+7)/8*8 + uint64(stack)
	return uint32(min(total, math.MaxUint32))
}

// images is the free list behind Release: memory images of finished
// machines, at most GOMAXPROCS of them. Every image on it is zero up to its
// capacity, so handing one out is a reslice, never a clear.
var images struct {
	sync.Mutex
	free [][]byte
}

// imageGranule rounds a fresh image's capacity up, so a recycled image also
// fits modules whose globals are a few KiB larger than its first owner's.
const imageGranule = 64 << 10

// newImage returns an all-zero image of exactly n bytes: the most recently
// released one, or a fresh allocation when the list is empty or its image
// is too small (which is then dropped).
func newImage(n uint32) []byte {
	images.Lock()
	var img []byte
	if k := len(images.free); k > 0 {
		img = images.free[k-1]
		images.free[k-1] = nil
		images.free = images.free[:k-1]
	}
	images.Unlock()
	if uint64(cap(img)) < uint64(n) {
		img = make([]byte, n, (uint64(n)+imageGranule-1)/imageGranule*imageGranule)
	}
	return img[:n]
}

// Release returns the machine's memory image to the free list New draws
// from, sparing the next machine a 4 MiB allocation and clear. It zeroes
// only what runs dirtied — the module's globals and the stack from the
// low-water mark up (all of it after a tree-walk run) — which keeps the
// list's zero-image invariant. The list holds at most GOMAXPROCS images;
// past that the image is left to the garbage collector. Call Release once
// the run's results have been read, and do not run the machine again.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	m.zeroDirtyMem()
	img := m.mem
	m.mem = nil
	images.Lock()
	if len(images.free) < runtime.GOMAXPROCS(0) {
		images.free = append(images.free, img)
	}
	images.Unlock()
}

// Trap is a runtime error raised by the executing program.
type Trap struct {
	Msg  string
	Func string
}

func (t *Trap) Error() string { return fmt.Sprintf("trap in %s: %s", t.Func, t.Msg) }

// ErrStepLimit is wrapped by the ResourceExhausted error returned when the
// instruction budget is exhausted.
var ErrStepLimit = errors.New("step limit exceeded")

// Resource names carried by ResourceExhausted.
const (
	ResSteps        = "steps"
	ResWallClock    = "wall-clock"
	ResShadowMemory = "shadow-memory"
)

// Limits bounds one execution. The zero value applies only the machine's
// (default) step budget.
type Limits struct {
	// Timeout is the wall-clock budget; 0 disables the deadline. The
	// machine polls the clock every few thousand instructions, so very
	// short timeouts overshoot by a sliver.
	Timeout time.Duration
	// MaxSteps overrides the machine's instruction budget when positive.
	MaxSteps int64
}

// ResourceExhausted is returned when a run exceeds one of its execution
// limits — the step budget, the wall-clock deadline, or (raised by the
// shadow runtime) the shadow-memory budget. Campaign runners switch on
// Resource to classify the run or retry with a degraded configuration.
type ResourceExhausted struct {
	Resource string // ResSteps, ResWallClock or ResShadowMemory
	Limit    int64  // the configured budget (steps, nanoseconds or bytes)
	Used     int64  // consumption when the limit tripped
	Func     string // function executing when the limit tripped
	Steps    int64  // instructions executed so far
}

func (e *ResourceExhausted) Error() string {
	return fmt.Sprintf("resource exhausted in %s after %d steps: %s (limit %d, used %d)",
		e.Func, e.Steps, e.Resource, e.Limit, e.Used)
}

// Unwrap lets errors.Is(err, ErrStepLimit) keep working for step budgets.
func (e *ResourceExhausted) Unwrap() error {
	if e.Resource == ResSteps {
		return ErrStepLimit
	}
	return nil
}

// InternalFault is returned when a panic escapes the interpreter or a hook
// during a run: instead of killing the process, Run converts it into a
// diagnosable error carrying the execution position. One poisoned run in a
// fault-injection campaign therefore never takes down the sweep.
type InternalFault struct {
	Func      string      // function executing when the panic fired
	Block     int32       // basic block index
	Index     int         // instruction index within the block
	Steps     int64       // instructions executed so far
	Recovered interface{} // the original panic value
}

func (e *InternalFault) Error() string {
	return fmt.Sprintf("internal fault in %s (block %d, instr %d, step %d): %v",
		e.Func, e.Block, e.Index, e.Steps, e.Recovered)
}

// Cancelled is returned by RunContext when the governing context is
// cancelled while the program runs. It is deliberately distinct from
// *ResourceExhausted: a cancellation is an external decision (client
// disconnect, server drain, campaign deadline), not a budget the run blew
// through, and callers map the two to different failure handling (HTTP 499
// vs 503, campaign abort vs "hung" classification). The interpreter polls
// the context cooperatively every few thousand instructions, so a hot loop
// stops within one step-budget check of the cancellation.
type Cancelled struct {
	Func  string // function executing when the cancellation was observed
	Steps int64  // instructions executed so far
	Cause error  // context.Cause at observation time
}

func (e *Cancelled) Error() string {
	return fmt.Sprintf("run cancelled in %s after %d steps: %v", e.Func, e.Steps, e.Cause)
}

// Unwrap exposes the context cause, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work.
func (e *Cancelled) Unwrap() error { return e.Cause }

// Stopped is returned by Run when a hook deliberately halted execution —
// the mechanism behind PositDebug's conditional error breakpoints (the
// paper's gdb workflow). Reason carries the hook's payload, typically a
// *shadow.Report.
type Stopped struct{ Reason interface{} }

func (s *Stopped) Error() string { return "execution stopped by shadow hook" }

// Steps returns the number of instructions executed by the last Run.
func (m *Machine) Steps() int64 { return m.steps }

// Run executes the module's __init function and then the named function
// with the given argument bit patterns, returning the function's result.
// If a hook panics with *Stopped (a debugger breakpoint), Run recovers it
// and returns it as the error. Any other panic escaping the interpreter or
// a hook is recovered into a structured *InternalFault (or the
// *ResourceExhausted a hook raised) rather than re-panicking.
func (m *Machine) Run(name string, args ...uint64) (v uint64, err error) {
	return m.RunWithLimits(name, Limits{}, args...)
}

// RunWithLimits is Run with explicit execution limits: a wall-clock
// timeout on top of the instruction budget, both reported as structured
// *ResourceExhausted errors.
func (m *Machine) RunWithLimits(name string, lim Limits, args ...uint64) (v uint64, err error) {
	return m.RunContext(context.Background(), name, lim, args...)
}

// RunContext is RunWithLimits governed by a context: when ctx is cancelled
// the interpreter stops cooperatively within one step-budget check and
// returns a structured *Cancelled error. A context with no Done channel
// (context.Background()) adds no per-step cost beyond one nil check per
// poll interval.
func (m *Machine) RunContext(ctx context.Context, name string, lim Limits, args ...uint64) (v uint64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx, m.ctxDone = ctx, ctx.Done()
	if m.ctxDone != nil {
		select {
		case <-m.ctxDone:
			return 0, &Cancelled{Cause: context.Cause(ctx)}
		default:
		}
	}
	defer func() {
		if r := recover(); r != nil {
			switch f := r.(type) {
			case *Stopped:
				err = f
			case *InternalFault:
				err = f
			case *Cancelled:
				if f.Func == "" && m.curFn != nil {
					f.Func = m.curFn.Name
				}
				f.Steps = m.steps
				err = f
			case *ResourceExhausted:
				if f.Func == "" && m.curFn != nil {
					f.Func = m.curFn.Name
				}
				f.Steps = m.steps
				err = f
			default:
				fault := &InternalFault{Block: m.curBlk, Index: m.curIdx, Steps: m.steps, Recovered: r}
				if m.curFn != nil {
					fault.Func = m.curFn.Name
				}
				err = fault
			}
		}
	}()
	if m.Hooks == nil {
		m.Hooks = NopHooks{}
	}
	useVM := m.Backend == backend.VM
	var chunk *bytecode.Module
	if useVM {
		var cerr error
		if chunk, cerr = m.ensureChunk(); cerr != nil {
			return 0, cerr
		}
	}
	if lim.Timeout > 0 {
		m.deadline = time.Now().Add(lim.Timeout)
		m.checkDeadline = true
	} else {
		m.deadline = time.Time{}
		m.checkDeadline = false
	}
	m.limSteps = lim.MaxSteps
	m.limTimeout = lim.Timeout
	m.curFn, m.curBlk, m.curIdx = nil, 0, 0
	m.steps = 0
	m.depth = 0
	m.vmFrames = m.vmFrames[:0]
	m.sp = uint32(len(m.mem))
	if useVM {
		m.zeroDirtyMem()
	} else {
		clear(m.mem)
		// A tree-walk run dirties the stack without low-water tracking;
		// make the next VM run on this machine re-zero the whole stack.
		m.lowWater = m.Mod.GlobalBase + m.Mod.GlobalSize
	}
	for _, q := range m.quires {
		q.Clear()
	}
	m.Hooks.Reset()
	m.inj = m.Injector
	if m.inj != nil {
		m.inj.Reset()
	}
	fn := m.Mod.FuncByName(name)
	if fn == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("interp: %s takes %d args, got %d", name, len(fn.Params), len(args))
	}
	if useVM {
		fi := m.Mod.FuncIdx[name]
		if cp := m.resumePoint(chunk, fi, args); cp != nil {
			return m.vmRun(chunk, fi, nil, cp)
		}
		rec := m.newRecording(fi, args)
		defer m.stopRecording(rec)
		if ii, ok := m.Mod.FuncIdx["__init"]; ok {
			if _, err := m.vmRun(chunk, ii, nil, nil); err != nil {
				return 0, err
			}
		}
		m.rec = rec
		return m.vmRun(chunk, fi, args, nil)
	}
	if init := m.Mod.FuncByName("__init"); init != nil {
		if _, err := m.call(init, nil); err != nil {
			return 0, err
		}
	}
	return m.call(fn, args)
}

// stepCheck is the check made before executing step s: the step budget,
// then, every deadlineCheckMask+1 steps, the wall-clock deadline and the
// run's context. Both backends make it for every step they count.
func (m *Machine) stepCheck(fname string, s, maxSteps int64) error {
	if s > maxSteps {
		return &ResourceExhausted{Resource: ResSteps, Limit: maxSteps, Used: s, Func: fname, Steps: s}
	}
	if s&deadlineCheckMask != 0 {
		return nil
	}
	if m.checkDeadline && time.Now().After(m.deadline) {
		return &ResourceExhausted{Resource: ResWallClock, Limit: int64(m.limTimeout), Used: s, Func: fname, Steps: s}
	}
	if m.ctxDone != nil {
		select {
		case <-m.ctxDone:
			return &Cancelled{Func: fname, Steps: s, Cause: context.Cause(m.runCtx)}
		default:
		}
	}
	return nil
}

func (m *Machine) trap(fn *ir.Func, format string, args ...interface{}) error {
	return &Trap{Msg: fmt.Sprintf(format, args...), Func: fn.Name}
}

// getRegs returns a zeroed register frame of n slots, reusing a pooled one
// when it is large enough (callers rely on unwritten registers reading 0).
func (m *Machine) getRegs(n int32) []uint64 {
	if l := len(m.regPool); l > 0 {
		r := m.regPool[l-1]
		m.regPool = m.regPool[:l-1]
		if cap(r) >= int(n) {
			r = r[:n]
			clear(r)
			return r
		}
	}
	return make([]uint64, n)
}

func (m *Machine) putRegs(regs []uint64) {
	m.regPool = append(m.regPool, regs)
}

func (m *Machine) call(fn *ir.Func, args []uint64) (uint64, error) {
	if m.depth++; m.depth > maxCallDepth {
		return 0, m.trap(fn, "call depth exceeded")
	}
	defer func() { m.depth-- }()

	frame := (fn.FrameSize + 7) / 8 * 8
	base := m.Mod.GlobalBase + m.Mod.GlobalSize
	if m.sp < base+frame {
		return 0, m.trap(fn, "stack overflow")
	}
	savedSP := m.sp
	m.sp -= frame
	fp := m.sp
	// Zero the frame so stale stack data never leaks into locals.
	for i := fp; i < savedSP; i++ {
		m.mem[i] = 0
	}
	defer func() { m.sp = savedSP }()

	regs := m.getRegs(fn.NumRegs)
	defer m.putRegs(regs)
	copy(regs, args)

	maxSteps := m.limSteps
	if maxSteps == 0 {
		maxSteps = m.MaxSteps
	}
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}

	// The frame's position is block 0, instr 0 from entry, so a panicking
	// EnterFunc is annotated below as this function's.
	prevFn := m.curFn
	m.curFn, m.curBlk, m.curIdx = fn, 0, 0
	defer func() {
		m.curFn = prevFn
		r := recover()
		if r == nil {
			return
		}
		// Annotate the panic at the innermost frame, where the
		// breadcrumbs still name the panicking function; outer frames
		// pass the structured value through unchanged.
		switch f := r.(type) {
		case *Stopped, *InternalFault:
		case *Cancelled:
			if f.Func == "" {
				f.Func = fn.Name
			}
		case *ResourceExhausted:
			if f.Func == "" {
				f.Func = fn.Name
			}
		default:
			r = &InternalFault{
				Func: fn.Name, Block: m.curBlk, Index: m.curIdx,
				Steps: m.steps, Recovered: f,
			}
		}
		panic(r)
	}()
	if fn.Instrumented && m.Hooks != nil {
		m.Hooks.EnterFunc(fn, regs[:len(fn.Params)])
		// Deferred after the recover so it runs first: a panicking
		// LeaveFunc is annotated here, at this frame's ret.
		defer m.Hooks.LeaveFunc()
	}

	b, i := int32(0), 0
	for {
		if m.steps++; m.steps > maxSteps || m.steps&deadlineCheckMask == 0 {
			if err := m.stepCheck(fn.Name, m.steps, maxSteps); err != nil {
				return 0, err
			}
		}
		m.curBlk, m.curIdx = b, i
		in := &fn.Blocks[b].Instrs[i]
		i++
		switch in.Op {
		case ir.OpNop:
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
			v, err := m.binEval(fn, ir.BinKind(in.Kind), in.Type, regs[in.A], regs[in.B])
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case ir.OpUn:
			regs[in.Dst] = unEval(ir.UnKind(in.Kind), in.Type, regs[in.A])
		case ir.OpCmp:
			if cmpEval(ir.CmpPred(in.Kind), in.Type, regs[in.A], regs[in.B]) {
				regs[in.Dst] = 1
			} else {
				regs[in.Dst] = 0
			}
		case ir.OpCast:
			regs[in.Dst] = castEval(in.Type, in.Type2, regs[in.A])
		case ir.OpLoad:
			v, err := m.load(fn, in.Type, uint32(regs[in.A]))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case ir.OpStore:
			if err := m.store(fn, in.Type, uint32(regs[in.A]), regs[in.B]); err != nil {
				return 0, err
			}
		case ir.OpFrameAddr:
			regs[in.Dst] = uint64(fp) + in.Imm
		case ir.OpGlobalAddr:
			regs[in.Dst] = in.Imm
		case ir.OpAddrIndex:
			regs[in.Dst] = regs[in.A] + regs[in.B]*in.Imm
		case ir.OpBr:
			if regs[in.A] != 0 {
				b = in.Blk[0]
			} else {
				b = in.Blk[1]
			}
			i = 0
		case ir.OpJmp:
			b, i = in.Blk[0], 0
		case ir.OpCall:
			callee := m.Mod.Funcs[in.Fn]
			m.argScratch = m.argScratch[:0]
			for _, a := range in.Args {
				m.argScratch = append(m.argScratch, regs[a])
			}
			v, err := m.call(callee, m.argScratch)
			if err != nil {
				return 0, err
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}
		case ir.OpRet:
			if in.A >= 0 {
				return regs[in.A], nil
			}
			return 0, nil
		case ir.OpPrint:
			m.print(in.Type, regs[in.A])
		case ir.OpPrintStr:
			if m.Out != nil {
				fmt.Fprintln(m.Out, in.Str)
			}
		case ir.OpQClear:
			// qclear() is untyped at the source level; reset every quire.
			for _, q := range m.quires {
				q.Clear()
			}
		case ir.OpQAdd:
			q := m.quire(in.Type)
			if in.Kind == 1 {
				q.Sub(posit.Bits(regs[in.A]))
			} else {
				q.Add(posit.Bits(regs[in.A]))
			}
		case ir.OpQMAdd:
			q := m.quire(in.Type)
			if in.Kind == 1 {
				q.SubProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
			} else {
				q.AddProduct(posit.Bits(regs[in.A]), posit.Bits(regs[in.B]))
			}
		case ir.OpQVal:
			regs[in.Dst] = uint64(m.quire(in.Type).Posit())
		case ir.OpFMA:
			regs[in.Dst] = fmaEval(in.Type, regs[in.Args[0]], regs[in.Args[1]], regs[in.Args[2]])

		case ir.OpShadowConst:
			m.mutate(in, regs)
			m.Hooks.Const(in.ID, in.Type, in.Dst, regs[in.Dst])
		case ir.OpShadowMov:
			m.Hooks.Mov(in.ID, in.Type, in.Dst, in.A, regs[in.Dst])
		case ir.OpShadowBin:
			m.mutate(in, regs)
			m.Hooks.Bin(in.ID, ir.BinKind(in.Kind), in.Type, in.Dst, in.A, in.B,
				regs[in.Dst], regs[in.A], regs[in.B])
		case ir.OpShadowUn:
			m.mutate(in, regs)
			m.Hooks.Un(in.ID, ir.UnKind(in.Kind), in.Type, in.Dst, in.A, regs[in.Dst], regs[in.A])
		case ir.OpShadowCmp:
			m.Hooks.Cmp(in.ID, ir.CmpPred(in.Kind), in.Type, in.A, in.B,
				regs[in.A], regs[in.B], regs[in.Dst] != 0)
		case ir.OpShadowCast:
			m.mutate(in, regs)
			m.Hooks.Cast(in.ID, in.Type, in.Type2, in.Dst, in.A, regs[in.Dst], regs[in.A])
		case ir.OpShadowLoad:
			m.mutate(in, regs)
			m.Hooks.Load(in.ID, in.Type, in.Dst, uint32(regs[in.A]), regs[in.Dst])
		case ir.OpShadowStore:
			stored := regs[in.B]
			if m.inj != nil {
				if nb, ok := m.inj.Mutate(in.ID, in.Op, in.Type, stored); ok {
					// A store fault corrupts the memory cell, not the
					// register: rewrite the bytes the OpStore just wrote.
					m.injected(in.ID, in.Op, in.Type, stored, nb)
					stored = nb
					if err := m.store(fn, in.Type, uint32(regs[in.A]), stored); err != nil {
						return 0, err
					}
				}
			}
			m.Hooks.Store(in.ID, in.Type, uint32(regs[in.A]), in.B, stored)
		case ir.OpShadowPreCall:
			m.argScratch = m.argScratch[:0]
			for _, a := range in.Args {
				m.argScratch = append(m.argScratch, regs[a])
			}
			m.Hooks.PreCall(m.Mod.Funcs[in.Fn], in.Args, m.argScratch)
		case ir.OpShadowPostCall:
			var bits uint64
			if in.Dst >= 0 {
				m.mutate(in, regs)
				bits = regs[in.Dst]
			}
			m.Hooks.PostCall(in.ID, in.Type, in.Dst, bits)
		case ir.OpShadowRet:
			var bits uint64
			if in.A >= 0 {
				bits = regs[in.A]
			}
			m.Hooks.Ret(in.Type, in.A, bits)
		case ir.OpShadowPrint:
			m.Hooks.Print(in.ID, in.Type, in.A, regs[in.A])
		case ir.OpShadowQClear:
			m.Hooks.QClear(in.Type)
		case ir.OpShadowQAdd:
			m.Hooks.QAdd(in.Type, in.A, regs[in.A], in.Kind == 1)
		case ir.OpShadowQMAdd:
			m.Hooks.QMAdd(in.Type, in.A, in.B, regs[in.A], regs[in.B], in.Kind == 1)
		case ir.OpShadowQVal:
			m.mutate(in, regs)
			m.Hooks.QVal(in.ID, in.Type, in.Dst, regs[in.Dst])
		case ir.OpShadowFMA:
			m.mutate(in, regs)
			m.Hooks.FMA(in.ID, in.Type, in.Dst, in.Args[0], in.Args[1], in.Args[2],
				regs[in.Dst], regs[in.Args[0]], regs[in.Args[1]], regs[in.Args[2]])
		default:
			return 0, m.trap(fn, "unknown opcode %v", in.Op)
		}
	}
}

// mutate consults the Injector right before a value-producing shadow event
// is delivered, rewriting the destination register with the corrupted
// bits. The hooks then observe the corrupted program value against a clean
// shadow value, which is exactly what lets the shadow oracle detect the
// fault.
func (m *Machine) mutate(in *ir.Instr, regs []uint64) {
	if m.inj == nil {
		return
	}
	if nb, ok := m.inj.Mutate(in.ID, in.Op, in.Type, regs[in.Dst]); ok {
		m.injected(in.ID, in.Op, in.Type, regs[in.Dst], nb)
		regs[in.Dst] = nb
	}
}

// injected announces a corruption the Injector just applied to hooks that
// implement InjectionObserver, before the corrupted event is delivered,
// and stops consulting an injector that reports Spent for the rest of the
// run. It runs only on a hit and stays out of line, so the paths that
// every event of an injected run takes do not grow.
//
//go:noinline
func (m *Machine) injected(id int32, op ir.Op, typ ir.Type, before, after uint64) {
	if o, ok := m.Hooks.(InjectionObserver); ok {
		o.ObserveInjection(id, op, typ, before, after)
	}
	if m.inj.Spent() {
		m.inj = nil
	}
}

func (m *Machine) quire(t ir.Type) *posit.Quire {
	q, ok := m.quires[t]
	if !ok {
		q = posit.NewQuire(t.PositConfig())
		m.quires[t] = q
	}
	return q
}

func (m *Machine) checkAddr(fn *ir.Func, addr, size uint32) error {
	if addr < m.Mod.GlobalBase || uint64(addr)+uint64(size) > uint64(len(m.mem)) {
		return m.trap(fn, "memory access out of bounds: addr=%d size=%d", addr, size)
	}
	return nil
}

func (m *Machine) load(fn *ir.Func, t ir.Type, addr uint32) (uint64, error) {
	size := t.Size()
	if err := m.checkAddr(fn, addr, size); err != nil {
		return 0, err
	}
	var v uint64
	for k := uint32(0); k < size; k++ {
		v |= uint64(m.mem[addr+k]) << (8 * k)
	}
	return v, nil
}

func (m *Machine) store(fn *ir.Func, t ir.Type, addr uint32, v uint64) error {
	size := t.Size()
	if err := m.checkAddr(fn, addr, size); err != nil {
		return err
	}
	for k := uint32(0); k < size; k++ {
		m.mem[addr+k] = byte(v >> (8 * k))
	}
	return nil
}

func (m *Machine) print(t ir.Type, v uint64) {
	if m.Out == nil {
		return
	}
	fmt.Fprintln(m.Out, FormatValue(t, v))
}

// FormatValue renders a bit-pattern value of the given type.
func FormatValue(t ir.Type, v uint64) string {
	switch t {
	case ir.I64:
		return fmt.Sprintf("%d", int64(v))
	case ir.Bool:
		if v != 0 {
			return "true"
		}
		return "false"
	case ir.F32:
		return fmt.Sprintf("%g", math.Float32frombits(uint32(v)))
	case ir.F64:
		return fmt.Sprintf("%g", math.Float64frombits(v))
	case ir.P8, ir.P16, ir.P32:
		return t.PositConfig().Format(posit.Bits(v))
	default:
		return fmt.Sprintf("%#x", v)
	}
}
