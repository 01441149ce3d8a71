package interp

import (
	"io"
	"slices"

	"positdebug/internal/bytecode"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
)

// Checkpoint is a VM run's complete state at one poll step of its entry
// function, taken before the op the poll falls on (or, when the poll
// falls on the second half of a fused pair, before the next op): the
// frame stack and registers, the stack pointer, step count and low-water
// mark, the dirty memory image, the program quires and the output printed
// so far, plus the parts the hooks and the injector saved
// (Checkpointer). A run that starts from it continues exactly where the
// recorded run stood, with the recorded step count, so step budgets,
// polls and the injector's candidate count read as they would had it run
// from step 0.
//
// A checkpoint is immutable once recorded: any number of runs may resume
// from it concurrently.
type Checkpoint struct {
	chunk *bytecode.Module
	entry int32
	args  []uint64

	steps        int64
	frames       []vmFrame
	regs         []uint64
	sp, lowWater uint32
	memLen       int
	globals      []byte // the module's globals
	stack        []byte // the image from stackLo to its end
	stackLo      uint32
	quires       map[ir.Type]*posit.Quire
	out          []byte

	hooks, inj any
}

// Steps reports the step count the checkpoint resumes at.
func (cp *Checkpoint) Steps() int64 { return cp.steps }

// Depth reports how many frames were live: more than one when the
// checkpoint fell inside a callee.
func (cp *Checkpoint) Depth() int { return len(cp.frames) }

// Checkpointer is an optional interface of Hooks and Injector
// implementations whose run state a Checkpoint can carry.
type Checkpointer interface {
	// SaveCheckpoint returns a snapshot of the run state so far, or
	// ok=false when this run's state cannot be checkpointed (the machine
	// then records nothing at this step). The snapshot must not share
	// mutable storage with the live state.
	SaveCheckpoint() (state any, ok bool)
	// RestoreCheckpoint replaces the state Reset just cleared with a
	// snapshot SaveCheckpoint returned, reporting false, with the state
	// left as Reset left it, when the snapshot does not fit this run. It
	// must only read the snapshot, which other runs may be restoring from
	// at the same time.
	RestoreCheckpoint(state any) bool
}

// CheckpointRecorder is an optional interface of Injector: a VM run whose
// injector implements it records checkpoints while its entry function
// runs, provided the run's hooks implement Checkpointer too. At each poll
// step (every deadlineCheckMask+1 steps) the machine asks WantCheckpoint,
// and hands each checkpoint it then takes to RecordCheckpoint, in step
// order.
type CheckpointRecorder interface {
	Checkpointer
	WantCheckpoint(pollStep int64) bool
	RecordCheckpoint(cp *Checkpoint)
}

// Resumer is an optional interface of Injector: a VM run whose injector
// implements it starts from the checkpoint ResumeFrom returns (nil means
// step 0), provided the checkpoint was recorded from the same bytecode,
// entry function and arguments, and the hooks and the injector both
// restore their parts. Otherwise the run starts from step 0.
type Resumer interface {
	Checkpointer
	ResumeFrom() *Checkpoint
}

// recording is a recording run's state: the recorder, and the output
// printed so far, which the machine tees off Machine.Out.
type recording struct {
	rec     CheckpointRecorder
	hooks   Checkpointer
	entry   int32
	args    []uint64
	out     []byte
	w       io.Writer
	pending bool // a poll fell on a fused pair's second half
}

// Write tees the run's output into the recording.
func (r *recording) Write(b []byte) (int, error) {
	r.out = append(r.out, b...)
	if r.w == nil {
		return len(b), nil
	}
	return r.w.Write(b)
}

// newRecording starts teeing the output of a VM run of entry when the
// injector records and the hooks can be checkpointed, and returns the
// recording, which the run arms (Machine.rec) once __init has returned.
func (m *Machine) newRecording(entry int32, args []uint64) *recording {
	rec, ok := m.Injector.(CheckpointRecorder)
	if !ok {
		return nil
	}
	hc, ok := m.Hooks.(Checkpointer)
	if !ok {
		return nil
	}
	r := &recording{rec: rec, hooks: hc, entry: entry, args: slices.Clone(args), w: m.Out}
	m.Out = r
	return r
}

// stopRecording ends a recording run, handing Machine.Out back.
func (m *Machine) stopRecording(r *recording) {
	if r != nil {
		m.Out = r.w
	}
	m.rec = nil
}

// vmRecord is vmCheck's recording step for the op at pc, charged steps
// first..first+w-1 of the entry function's run: a poll on its first step
// (or one left pending) records a checkpoint before the op; a poll on a
// fused pair's second half is left pending until the next op.
func (m *Machine) vmRecord(ch *bytecode.Module, pc int, first, w int64) {
	r := m.rec
	switch {
	case r.pending:
		r.pending = false
		m.capture(ch, pc, first-1)
	case first&deadlineCheckMask == 0:
		if r.rec.WantCheckpoint(first) {
			m.capture(ch, pc, first-1)
		}
	case w == 2 && (first+1)&deadlineCheckMask == 0:
		r.pending = r.rec.WantCheckpoint(first + 1)
	}
}

// capture records a checkpoint of the run as it stands before the op at
// pc, with steps executed.
func (m *Machine) capture(ch *bytecode.Module, pc int, steps int64) {
	r := m.rec
	hs, ok := r.hooks.SaveCheckpoint()
	if !ok {
		return
	}
	is, ok := r.rec.SaveCheckpoint()
	if !ok {
		return
	}
	top := &m.vmFrames[len(m.vmFrames)-1]
	gb, gs := ch.GlobalBase, ch.GlobalSize
	lo := max(m.lowWater, gb+gs)
	cp := &Checkpoint{
		chunk: ch, entry: r.entry, args: r.args,
		steps:  steps,
		frames: slices.Clone(m.vmFrames),
		regs:   slices.Clone(m.vmRegs[:top.rb+int(top.f.NumRegs)]),
		sp:     m.sp, lowWater: m.lowWater,
		memLen:  len(m.mem),
		globals: slices.Clone(m.mem[gb : gb+gs]),
		stack:   slices.Clone(m.mem[lo:]),
		stackLo: lo,
		out:     slices.Clone(r.out),
		hooks:   hs, inj: is,
	}
	cp.frames[len(cp.frames)-1].pc = pc
	if len(m.quires) > 0 {
		cp.quires = make(map[ir.Type]*posit.Quire, len(m.quires))
		for t, q := range m.quires {
			cp.quires[t] = q.Clone()
		}
	}
	r.rec.RecordCheckpoint(cp)
}

// resumePoint returns the checkpoint a VM run of entry with args starts
// from, its hooks and injector already restored, or nil for step 0.
func (m *Machine) resumePoint(ch *bytecode.Module, entry int32, args []uint64) *Checkpoint {
	res, ok := m.Injector.(Resumer)
	if !ok {
		return nil
	}
	cp := res.ResumeFrom()
	if cp == nil || cp.chunk != ch || cp.entry != entry || !slices.Equal(cp.args, args) || cp.memLen != len(m.mem) {
		return nil
	}
	hc, ok := m.Hooks.(Checkpointer)
	if !ok || !res.RestoreCheckpoint(cp.inj) {
		return nil
	}
	if !hc.RestoreCheckpoint(cp.hooks) {
		m.Injector.Reset()
		return nil
	}
	return cp
}

// restoreVM loads the machine part of cp into a machine whose memory
// RunContext has just zeroed.
func (m *Machine) restoreVM(cp *Checkpoint) {
	m.steps = cp.steps
	m.sp, m.lowWater = cp.sp, cp.lowWater
	gb := cp.chunk.GlobalBase
	copy(m.mem[gb:], cp.globals)
	copy(m.mem[cp.stackLo:], cp.stack)
	m.vmFrames = append(m.vmFrames[:0], cp.frames...)
	if len(m.vmRegs) < len(cp.regs) {
		m.vmRegs = make([]uint64, max(len(cp.regs), 256))
	}
	copy(m.vmRegs, cp.regs)
	for t, q := range cp.quires {
		m.quires[t] = q.Clone()
	}
	if len(cp.out) > 0 && m.Out != nil {
		_, _ = m.Out.Write(cp.out)
	}
	top := &m.vmFrames[len(m.vmFrames)-1]
	m.curFn, m.curBlk, m.curIdx, m.vmPC = top.f.IR, 0, 0, -1
}
