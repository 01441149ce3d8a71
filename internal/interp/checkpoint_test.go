package interp

import (
	"bytes"
	"errors"
	"testing"

	"positdebug/internal/backend"
	"positdebug/internal/instrument"
	"positdebug/internal/ir"
)

// cpHooks is a Hooks with no state of its own that lets runs checkpoint.
type cpHooks struct{ NopHooks }

func (cpHooks) SaveCheckpoint() (any, bool) { return nil, true }
func (cpHooks) RestoreCheckpoint(any) bool  { return true }

// cpInjector records every checkpoint offered to it, or resumes from one.
// It corrupts nothing; its state is the number of events it has seen.
type cpInjector struct {
	seen int64
	cps  []*Checkpoint
	from *Checkpoint
}

func (j *cpInjector) Reset() { j.seen = 0 }
func (j *cpInjector) Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (uint64, bool) {
	j.seen++
	return 0, false
}
func (j *cpInjector) Spent() bool                      { return false }
func (j *cpInjector) SaveCheckpoint() (any, bool)      { return j.seen, true }
func (j *cpInjector) RestoreCheckpoint(state any) bool { j.seen = state.(int64); return true }
func (j *cpInjector) WantCheckpoint(int64) bool        { return true }
func (j *cpInjector) RecordCheckpoint(cp *Checkpoint)  { j.cps = append(j.cps, cp) }
func (j *cpInjector) ResumeFrom() *Checkpoint          { return j.from }

// TestCheckpointResume: a VM run started from any checkpoint of a recorded
// run returns the same value after the same number of steps, prints the
// same output (part of it before the checkpoint), leaves the injector at
// the same count and trips a step budget at the same step. The program
// prints as it goes, keeps state in globals, the stack and a quire, and
// spends most of its steps in a callee, so checkpoints fall inside it.
func TestCheckpointResume(t *testing.T) {
	mod := instrument.Instrument(compile(t, `
var acc: [16]p32;
func step(x: p32, i: i64): p32 {
	var y: p32 = x * 0.5 + p32(i % 7);
	acc[i % 16] += y;
	qmadd(y, 0.25);
	return y;
}
func main(): p32 {
	qclear();
	var x: p32 = 1.0;
	for (var i: i64 = 0; i < 6000; i += 1) {
		x = step(x, i);
		if (i % 1000 == 0) { print(x); }
	}
	return x + acc[3] + qround_p32();
}`), instrument.Options{})
	run := func(inj Injector, maxSteps int64) (uint64, int64, string, error) {
		m := New(mod)
		m.Backend = backend.VM
		m.Hooks = cpHooks{}
		m.Injector = inj
		var out bytes.Buffer
		m.Out = &out
		v, err := m.RunWithLimits("main", Limits{MaxSteps: maxSteps})
		return v, m.Steps(), out.String(), err
	}
	rec := &cpInjector{}
	v, steps, out, err := run(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cps) < 4 {
		t.Fatalf("recorded %d checkpoints; want one per poll", len(rec.cps))
	}
	deep, late := 0, 0
	for _, cp := range rec.cps {
		if cp.Depth() > 1 {
			deep++
		}
		if cp.Steps()&deadlineCheckMask == 0 {
			late++ // the poll fell on a fused pair's second half
		}
		res := &cpInjector{from: cp}
		gv, gsteps, gout, err := run(res, 0)
		if err != nil || gv != v || gsteps != steps || gout != out || res.seen != rec.seen {
			t.Errorf("resumed at step %d: value %#x steps %d seen %d err %v, output %q; want %#x, %d, %d, nil, %q",
				cp.Steps(), gv, gsteps, res.seen, err, gout, v, steps, rec.seen, out)
		}
		budget := cp.Steps() + 100
		_, gsteps, _, err = run(&cpInjector{from: cp}, budget)
		if !errors.Is(err, ErrStepLimit) || gsteps != budget+1 {
			t.Errorf("resumed at step %d with budget %d: steps %d, err %v", cp.Steps(), budget, gsteps, err)
		}
	}
	if deep == 0 || late == 0 {
		t.Errorf("%d checkpoints, %d inside the callee, %d after a fused pair's poll; want some of each", len(rec.cps), deep, late)
	}
	// A checkpoint of another module's run is not resumed from.
	m := New(compile(t, `func main(): p32 { return 1.0; }`))
	m.Injector = &cpInjector{from: rec.cps[0]}
	m.Hooks = cpHooks{}
	if v, err := m.Run("main"); err != nil || m.Steps() > 10 || v == 0 {
		t.Errorf("foreign checkpoint: value %#x, %d steps, err %v", v, m.Steps(), err)
	}
}
