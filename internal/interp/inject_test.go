package interp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/ir"
)

// deliveryHooks counts the value-producing shadow events by Hooks method —
// Bin by type and kind too — and logs them, plus injection announcements,
// in order.
type deliveryHooks struct {
	NopHooks
	calls map[string]int
	log   []string
}

func (h *deliveryHooks) Reset() { h.calls, h.log = map[string]int{}, nil }

func (h *deliveryHooks) on(name string, id int32) {
	h.calls[name]++
	h.log = append(h.log, fmt.Sprintf("%s %d", name, id))
}

func (h *deliveryHooks) Const(id int32, typ ir.Type, dst int32, bits uint64) {
	h.on("Const", id)
}

func (h *deliveryHooks) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	h.on("Bin "+typ.String()+kind.String(), id)
}

func (h *deliveryHooks) Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {
	h.on("Un", id)
}

func (h *deliveryHooks) Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	h.on("Cast", id)
}

func (h *deliveryHooks) Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {
	h.on("Load", id)
}

func (h *deliveryHooks) Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {
	h.on("Store", id)
}

func (h *deliveryHooks) PostCall(id int32, typ ir.Type, dst int32, bits uint64) {
	h.on("PostCall", id)
}

func (h *deliveryHooks) ObserveInjection(id int32, op ir.Op, typ ir.Type, before, after uint64) {
	h.log = append(h.log, fmt.Sprintf("inject %d", id))
}

// scriptInjector flips the low bit of the events at the given 1-based
// positions in its Mutate stream and is spent after the last of them.
type scriptInjector struct {
	hits      []int64
	seen      int64 // Mutate calls this run: the candidate count
	stream    []string
	fired     int
	spent     bool // Spent has reported true
	lateCalls int  // Mutate calls after that
}

func (j *scriptInjector) Reset() {
	j.seen, j.stream, j.fired, j.spent, j.lateCalls = 0, nil, 0, false, 0
}

func (j *scriptInjector) Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (uint64, bool) {
	if j.spent {
		j.lateCalls++
	}
	j.seen++
	j.stream = append(j.stream, fmt.Sprintf("%v %v %d %#x", op, typ, id, bits))
	if j.fired < len(j.hits) && j.hits[j.fired] == j.seen {
		j.fired++
		return bits ^ 1, true
	}
	return bits, false
}

func (j *scriptInjector) Spent() bool {
	j.spent = j.fired == len(j.hits)
	return j.spent
}

// deliverySrc reaches every fused value-producing superinstruction: ⟨32,2⟩
// and ⟨16,1⟩ arithmetic, f64 arithmetic, negation, constants, casts,
// loads and stores, with call returns in between. Its control flow does
// not depend on any corruptible value, so every schedule runs the same
// event stream.
const deliverySrc = `
var xs: [4]p32;
var ys: [4]f64;

func scale(x: p32, s: p32): p32 {
	return x * s;
}

func main(): p32 {
	var acc: p32 = 0.0;
	var h: p16 = 1.5;
	var f: f64 = 0.25;
	for (var i: i64 = 0; i < 4; i += 1) {
		xs[i] = p32(i) + 0.5;
		ys[i] = f64(i) * f;
	}
	for (var i: i64 = 0; i < 4; i += 1) {
		acc = acc + scale(xs[i], 2.0) - p32(ys[i]);
		h = h * h - h;
		f = -f;
	}
	return acc + p32(h) + p32(f);
}
`

// TestInjectorDeliveryRule pins the delivery rule: every value-producing
// event, ⟨32,2⟩ add/sub/mul included, reaches its Hooks method on both
// backends, with or without a live injector, in the order of an uninjected
// run; each hit's event follows its announcement; a spent injector is
// never consulted again; and both backends show the injector the same
// stream.
func TestInjectorDeliveryRule(t *testing.T) {
	mod := instrumentForTest(compile(t, deliverySrc))
	run := func(k backend.Kind, inj Injector) (*deliveryHooks, uint64) {
		t.Helper()
		h := &deliveryHooks{}
		m := New(mod)
		defer m.Release()
		m.Backend = k
		m.Hooks = h
		m.Injector = inj
		v, err := m.Run("main")
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		return h, v
	}

	base, want := run(backend.VM, nil)
	for _, name := range []string{"Bin p32+", "Bin p32-", "Bin p32*", "Bin p16*", "Bin f64*",
		"Un", "Const", "Cast", "Load", "Store", "PostCall"} {
		if base.calls[name] == 0 {
			t.Fatalf("program reaches no %s event: %v", name, base.calls)
		}
	}
	if tw, _ := run(backend.Treewalk, nil); !slices.Equal(tw.log, base.log) {
		t.Fatalf("uninjected event streams diverged\nvm:\n%s\ntreewalk:\n%s",
			strings.Join(base.log, "\n"), strings.Join(tw.log, "\n"))
	}
	probe := &scriptInjector{}
	run(backend.VM, probe)
	n := probe.seen

	schedules := [][]int64{nil, {2, n - 1}}
	for k := int64(1); k <= n; k++ {
		schedules = append(schedules, []int64{k})
	}
	for _, hits := range schedules {
		vmInj, twInj := &scriptInjector{hits: hits}, &scriptInjector{hits: hits}
		vh, vv := run(backend.VM, vmInj)
		th, tv := run(backend.Treewalk, twInj)
		if len(hits) == 0 && vv != want {
			t.Errorf("never-firing injector changed the result: %#x, want %#x", vv, want)
		}
		if vv != tv {
			t.Errorf("hits %v: vm %#x, treewalk %#x", hits, vv, tv)
		}
		wantSeen := n
		if len(hits) > 0 {
			wantSeen = hits[len(hits)-1]
		}
		if vmInj.seen != wantSeen || twInj.seen != wantSeen {
			t.Errorf("hits %v: candidates vm %d, treewalk %d, want %d", hits, vmInj.seen, twInj.seen, wantSeen)
		}
		if !slices.Equal(vmInj.stream, twInj.stream) {
			t.Errorf("hits %v: injector streams diverged\nvm:\n%s\ntreewalk:\n%s", hits,
				strings.Join(vmInj.stream, "\n"), strings.Join(twInj.stream, "\n"))
		}
		if vmInj.lateCalls != 0 || twInj.lateCalls != 0 {
			t.Errorf("hits %v: Mutate called after Spent (vm %d, treewalk %d times)", hits, vmInj.lateCalls, twInj.lateCalls)
		}
		if !slices.Equal(vh.log, th.log) {
			t.Errorf("hits %v: event streams diverged\nvm:\n%s\ntreewalk:\n%s", hits,
				strings.Join(vh.log, "\n"), strings.Join(th.log, "\n"))
		}

		// Aligned with the uninjected run, every event arrives through the
		// same Hooks method whether the injector is live or spent, and
		// each hit's event follows its announcement.
		i, injects, hitID := 0, 0, ""
		for _, e := range vh.log {
			if id, ok := strings.CutPrefix(e, "inject "); ok {
				injects, hitID = injects+1, id
				continue
			}
			if i == len(base.log) {
				t.Fatalf("hits %v: more events than the uninjected run", hits)
			}
			b := base.log[i]
			i++
			if e != b {
				t.Errorf("hits %v: event %d is %q, want %q", hits, i, e, b)
			}
			if hitID != "" && !strings.HasSuffix(e, " "+hitID) {
				t.Errorf("hits %v: announcement of %s followed by %q", hits, hitID, e)
			}
			hitID = ""
		}
		if i != len(base.log) || injects != len(hits) {
			t.Errorf("hits %v: %d events and %d announcements, want %d and %d", hits, i, injects, len(base.log), len(hits))
		}
	}
}
