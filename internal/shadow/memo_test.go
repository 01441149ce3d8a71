package shadow_test

import (
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/codegen"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/lang"
	"positdebug/internal/refactor"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// TestMemoInvariant runs the §5.1 detection suite and every PolyBench
// kernel at DefaultN/4, as posit and f64, shadowed on both backends, and
// requires that after every event each memoized decode it left where a
// read could serve it equals a fresh decode of its key (shadow.MemoChecker).
func TestMemoInvariant(t *testing.T) {
	type program struct{ name, src string }
	toPosit := func(src string) string {
		out, err := refactor.Source(src, refactor.Options{})
		if err != nil {
			t.Fatalf("refactor: %v", err)
		}
		return out
	}
	var progs []program
	for _, p := range workloads.Suite() {
		if p.FromFP {
			progs = append(progs, program{p.Name + "/f64", p.Source})
			p.Source = toPosit(p.Source)
		}
		progs = append(progs, program{p.Name + "/posit", p.Source})
	}
	for _, k := range workloads.PolyBench() {
		src := k.Source(k.DefaultN / 4)
		progs = append(progs, program{k.Name + "/f64", src}, program{k.Name + "/posit", toPosit(src)})
	}
	for _, p := range progs {
		mod := instrumented(t, p.src)
		for _, k := range backend.Kinds() {
			rt, err := shadow.New(mod, shadow.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			c := &shadow.MemoChecker{Runtime: rt}
			m := interp.New(mod)
			m.Backend = k
			m.Hooks = c
			_, err = m.Run("main")
			m.Release()
			rt.Release()
			switch {
			case err != nil:
				t.Errorf("%s on %v: %v", p.name, k, err)
			case c.Err != nil:
				t.Errorf("%s on %v: %v", p.name, k, c.Err)
			case c.Checked == 0:
				t.Errorf("%s on %v: no memoized decode to check", p.name, k)
			}
		}
	}
}

// instrumented compiles src and instruments it for shadow execution.
func instrumented(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := codegen.Compile(chk)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return instrument.Instrument(mod, instrument.Options{})
}
