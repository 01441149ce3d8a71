package interp

import (
	"errors"
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

// panicHooks panics on the k-th Bin event — a stand-in for any bug in an
// observer (shadow runtime, fault injector, …).
type panicHooks struct {
	NopHooks
	n, at int
}

func (p *panicHooks) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	p.n++
	if p.n == p.at {
		panic("observer bug")
	}
}

func TestInternalFaultRecovery(t *testing.T) {
	mod := instrument.Instrument(compile(t, `func g(a: f64): f64 { return a * 2.0 + 1.0; }
func f(a: f64): f64 { return g(a) + g(a); }`), instrument.Options{})
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		m := New(mod)
		m.Backend = k
		m.Hooks = &panicHooks{at: 3}
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
