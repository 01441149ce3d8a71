package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/instrument"
	"positdebug/internal/ir"
)

func TestWallClockLimit(t *testing.T) {
	mod := compile(t, `func f(): i64 { var i: i64 = 0; while (true) { i += 1; } return i; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.MaxSteps = 1 << 62 // step budget out of the way
		_, err := m.RunWithLimits("f", Limits{Timeout: 30 * time.Millisecond})
		var re *ResourceExhausted
		if !errors.As(err, &re) || re.Resource != ResWallClock {
			t.Fatalf("want wall-clock *ResourceExhausted, got %v", err)
		}
		if re.Func != "f" || re.Steps == 0 {
			t.Fatalf("missing breadcrumbs: %#v", re)
		}
		if re.Limit != int64(30*time.Millisecond) {
			t.Fatalf("want limit %d, got %d", int64(30*time.Millisecond), re.Limit)
		}
	})
}

func TestLimitsMaxStepsOverride(t *testing.T) {
	mod := compile(t, `func f(): i64 { var i: i64 = 0; while (true) { i += 1; } return i; }`)
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		_, err := m.RunWithLimits("f", Limits{MaxSteps: 5000})
		var re *ResourceExhausted
		if !errors.As(err, &re) || re.Resource != ResSteps || re.Limit != 5000 {
			t.Fatalf("want steps limit 5000, got %v", err)
		}
	})
}

// panicHooks panics on the at-th occurrence of one hook event (Bin, Ret,
// EnterFunc or LeaveFunc) — a stand-in for any bug in an observer (shadow
// runtime, fault injector, …).
type panicHooks struct {
	NopHooks
	event string
	n, at int
}

func (p *panicHooks) hit(event string) {
	if event != p.event {
		return
	}
	if p.n++; p.n == p.at {
		panic("observer bug")
	}
}

func (p *panicHooks) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	p.hit("Bin")
}

func (p *panicHooks) Ret(typ ir.Type, src int32, bits uint64) { p.hit("Ret") }

func (p *panicHooks) EnterFunc(fn *ir.Func, argVals []uint64) { p.hit("EnterFunc") }

func (p *panicHooks) LeaveFunc() { p.hit("LeaveFunc") }

// entryHooks records the machine's step count at every EnterFunc.
type entryHooks struct {
	NopHooks
	m     *Machine
	steps []int64
}

func (h *entryHooks) EnterFunc(fn *ir.Func, argVals []uint64) {
	h.steps = append(h.steps, h.m.Steps())
}

// faultSrc calls g twice from f. With the module's __init that makes five
// Bin events, three Ret events (the fused sh.ret+ret pairs of g, g and
// f) and four each of EnterFunc and LeaveFunc.
const faultSrc = `func g(a: f64): f64 { return a * 2.0 + 1.0; }
func f(a: f64): f64 { return g(a) + g(a); }`

func TestInternalFaultRecovery(t *testing.T) {
	mod := instrument.Instrument(compile(t, faultSrc), instrument.Options{})
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.Hooks = &panicHooks{event: "Bin", at: 3}
		_, err := m.RunWithLimits("f", Limits{}, FromFloat64(ir.F64, 1.5))
		var fault *InternalFault
		if !errors.As(err, &fault) {
			t.Fatalf("want *InternalFault, got %v", err)
		}
		if fault.Recovered != "observer bug" {
			t.Fatalf("want recovered panic value, got %#v", fault.Recovered)
		}
		if fault.Func == "" || fault.Steps == 0 {
			t.Fatalf("missing breadcrumbs: %#v", fault)
		}
		if !strings.Contains(err.Error(), "internal fault") {
			t.Fatalf("unhelpful error text: %v", err)
		}
		// The machine must stay usable after a recovered fault.
		m.Hooks = NopHooks{}
		if _, err := m.Run("f", FromFloat64(ir.F64, 1.5)); err != nil {
			t.Fatalf("machine unusable after recovery: %v", err)
		}
	})
}

// TestInternalFaultPositionsAgree: a hook panicking at any of the first
// five occurrences of Bin, Ret, EnterFunc or LeaveFunc yields the same
// *InternalFault — function, block, instruction, step count and panic
// value — on both backends. An EnterFunc panic belongs to the entered
// frame: it names that function at block 0, instr 0, with the step count
// at entry. A LeaveFunc panic belongs to the returning frame: it names
// that function and its ret instruction. A Ret panic
// fires in the first half of a fused sh.ret+ret pair. Each faulting case
// runs again with a step budget ending on the panicking instruction,
// which makes the VM run only the first half of a fused pair there.
func TestInternalFaultPositionsAgree(t *testing.T) {
	mod := instrument.Instrument(compile(t, faultSrc), instrument.Options{})
	run := func(k backend.Kind, event string, at int, maxSteps int64) (*InternalFault, error) {
		m := New(mod)
		m.Backend = k
		m.Hooks = &panicHooks{event: event, at: at}
		_, err := m.RunWithLimits("f", Limits{MaxSteps: maxSteps}, FromFloat64(ir.F64, 1.5))
		var fault *InternalFault
		if err != nil && !errors.As(err, &fault) {
			return nil, err
		}
		return fault, nil
	}
	diff := func(event string, at int, maxSteps int64) *InternalFault {
		ref, err := run(backend.Treewalk, event, at, maxSteps)
		if err != nil {
			t.Fatalf("%s #%d (budget %d) treewalk: want *InternalFault or success, got %v", event, at, maxSteps, err)
		}
		got, err := run(backend.VM, event, at, maxSteps)
		if err != nil {
			t.Fatalf("%s #%d (budget %d) vm: want *InternalFault or success, got %v", event, at, maxSteps, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s #%d (budget %d): vm fault %+v, treewalk %+v", event, at, maxSteps, got, ref)
		}
		return ref
	}
	entry := &entryHooks{m: New(mod)}
	entry.m.Backend = backend.Treewalk
	entry.m.Hooks = entry
	if _, err := entry.m.Run("f", FromFloat64(ir.F64, 1.5)); err != nil {
		t.Fatal(err)
	}
	entering := []string{"__init", "f", "g", "g"} // in EnterFunc order
	leaving := []string{"__init", "g", "g", "f"}  // in LeaveFunc order
	for _, event := range []string{"Bin", "Ret", "EnterFunc", "LeaveFunc"} {
		for at := 1; at <= 5; at++ {
			ref := diff(event, at, 0)
			if ref != nil {
				diff(event, at, ref.Steps)
			}
			if event == "EnterFunc" && at <= len(entering) {
				want := InternalFault{Func: entering[at-1], Steps: entry.steps[at-1], Recovered: "observer bug"}
				if ref == nil || *ref != want {
					t.Errorf("EnterFunc #%d: fault %+v, want %+v", at, ref, want)
				}
			}
			if event != "LeaveFunc" || at > len(leaving) {
				continue
			}
			want := leaving[at-1]
			if ref == nil || ref.Func != want {
				t.Errorf("LeaveFunc #%d: fault %+v, want one in %s", at, ref, want)
				continue
			}
			blocks := mod.FuncByName(want).Blocks
			if int(ref.Block) >= len(blocks) || ref.Index >= len(blocks[ref.Block].Instrs) ||
				blocks[ref.Block].Instrs[ref.Index].Op != ir.OpRet {
				t.Errorf("LeaveFunc #%d: fault at block %d, instr %d of %s, want its ret", at, ref.Block, ref.Index, want)
			}
		}
	}
}
