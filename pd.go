// Package positdebug is a Go reproduction of "Debugging and Detecting
// Numerical Errors in Computation with Posits" (Chowdhary, Lim,
// Nagarakatte; PLDI 2020): PositDebug, a compile-time instrumentation that
// shadow-executes posit programs with high-precision values to detect
// catastrophic cancellation, precision loss, saturation, NaR exceptions,
// branch flips, wrong integer casts and wrong outputs — and FPSanitizer,
// the same metadata design applied to IEEE floating-point programs.
//
// The library compiles programs written in PCL (a small C-like numerical
// language; see internal/lang), lowers them to a register IR, optionally
// rewrites FP types to posits with the refactorer, instruments the IR with
// shadow instructions, and executes on an interpreter whose shadow hooks
// implement the paper's constant-size-metadata runtime.
//
// Quick start:
//
//	prog, err := positdebug.Compile(src)      // posit or FP source
//	res, err := prog.Exec("main")             // shadow execution, defaults
//	fmt.Println(res.Summary)                   // detections
//	for _, r := range res.Summary.Reports {    // DAGs per error
//	    fmt.Println(r)
//	}
//
// Exec is the one way to run a program. It takes functional options —
// WithShadow, WithSkip, WithLimits, WithInjector, WithTrace, WithMetrics,
// WithHerbgrind, WithBaseline, WithArgs — so cross-cutting concerns
// compose instead of multiplying entry points. Exec recycles memory
// images, shadow pages and bytecode between calls, so a sweep simply
// calls it once per run.
package positdebug

import (
	"fmt"
	"sync"

	"positdebug/internal/bytecode"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/lang"
	"positdebug/internal/posit"
	"positdebug/internal/refactor"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// Program is a compiled PCL program, ready to run uninstrumented
// (baseline) or under shadow execution. Its lazily built caches are safe
// for concurrent use, so any number of goroutines may Exec one Program.
type Program struct {
	Source string
	Module *ir.Module // uninstrumented IR

	instOnce     sync.Once
	instrumented *ir.Module
	// plainChunk and instChunk hold Module and Instrumented() compiled to
	// verified bytecode for the VM backend, each built on first use.
	plainChunk, instChunk chunkCache
}

// chunkCache builds one module's bytecode once, safely for concurrent use.
type chunkCache struct {
	once sync.Once
	ch   *bytecode.Module
}

// get returns mod's bytecode, compiling it on the first call. A module the
// compiler rejects caches nil; a machine then compiles it itself and
// reports the error from its run, as it would with no cache.
func (c *chunkCache) get(mod *ir.Module) *bytecode.Module {
	c.once.Do(func() { c.ch, _ = interp.Compile(mod) })
	return c.ch
}

// Compile parses, type-checks, lowers and verifies a PCL source.
func Compile(src string) (*Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("positdebug: %w", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("positdebug: %w", err)
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		return nil, fmt.Errorf("positdebug: %w", err)
	}
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("positdebug: internal error: %w", err)
	}
	return &Program{Source: src, Module: mod}, nil
}

// RefactorToPosit rewrites an FP program source into a ⟨32,2⟩ posit
// program, like the paper's clang-based refactorer.
func RefactorToPosit(src string) (string, error) {
	return refactor.Source(src, refactor.Options{})
}

// Instrumented returns the shadow-instrumented module, built on the first
// call.
func (p *Program) Instrumented() *ir.Module {
	p.instOnce.Do(func() {
		p.instrumented = instrument.Instrument(p.Module, instrument.Options{})
	})
	return p.instrumented
}

// SetSourceName names the program's source for reports and profiles: PCL
// has no file system, so positions render as name:line:col with whatever
// the caller passes — a workload name ("polybench/gemm"), a source hash
// (the server uses one), a file path. Call before the first run; the name
// is stamped into both the module and any already-instrumented copy.
func (p *Program) SetSourceName(name string) {
	p.Module.Source = name
	if p.instrumented != nil {
		p.instrumented.Source = name
	}
}

// Result carries a run's outcome.
type Result struct {
	Value   uint64          // raw bit-pattern result of the entry function
	Output  string          // everything the program printed
	Steps   int64           // instructions executed
	Summary *shadow.Summary // nil for baseline and Herbgrind runs

	// Degraded marks runs that exceeded the shadow-memory budget and were
	// automatically retried at a reduced precision.
	Degraded bool
	// ShadowPrecision is the nominal significand precision the run finally
	// completed at: the configured bigfp precision, or the selected
	// oracle's fixed width (106 for dd, 53 for residue).
	ShadowPrecision uint
	// ShadowOracle is the shadow-arithmetic backend the run used
	// (oracle.BigFP, oracle.DD or oracle.Residue); empty for baseline and
	// Herbgrind runs.
	ShadowOracle oracle.Kind
	// TraceNodes is the number of trace nodes a Herbgrind-baseline run
	// (WithHerbgrind) accumulated; 0 otherwise.
	TraceNodes int
}

// P32 decodes the result value as a ⟨32,2⟩ posit.
func (r *Result) P32() float64 { return posit.Config32.ToFloat64(posit.Bits(r.Value)) }

// F64 decodes the result value as a float64.
func (r *Result) F64() float64 { return interp.ToFloat64(ir.F64, r.Value) }

// I64 decodes the result value as an int64.
func (r *Result) I64() int64 { return int64(r.Value) }

// Run executes the uninstrumented program (the baseline of every
// experiment in the paper's evaluation). Equivalent to
// Exec(fn, WithBaseline(), WithArgs(args...)).
func (p *Program) Run(fn string, args ...uint64) (*Result, error) {
	return p.Exec(fn, WithBaseline(), WithArgs(args...))
}

// P32Arg encodes a float64 as a ⟨32,2⟩ posit argument.
func P32Arg(f float64) uint64 { return uint64(posit.Config32.FromFloat64(f)) }

// P16Arg encodes a float64 as a ⟨16,1⟩ posit argument.
func P16Arg(f float64) uint64 { return uint64(posit.Config16.FromFloat64(f)) }

// F64Arg encodes a float64 argument.
func F64Arg(f float64) uint64 { return interp.FromFloat64(ir.F64, f) }

// F32Arg encodes a float32 argument.
func F32Arg(f float64) uint64 { return interp.FromFloat64(ir.F32, f) }

// I64Arg encodes an int64 argument.
func I64Arg(v int64) uint64 { return uint64(v) }
