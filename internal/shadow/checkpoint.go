package shadow

import (
	"math/big"
	"slices"

	"positdebug/internal/bigfp"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/shadow/oracle"
)

var _ interp.Checkpointer = (*Runtime)(nil)

// checkpoint is the runtime's part of an interp.Checkpoint: everything a
// run has built up that the rest of the run or its summary reads. Shadow
// values are stored flat (vals); the decode memo, a pure cache, is not
// stored, and neither are DAG pointers and timestamps, because a runtime
// checkpoints only with Tracing off. A checkpoint is never written after
// SaveCheckpoint returns it.
type checkpoint struct {
	mod  *ir.Module
	key  cpKey
	vals valStore
	// observed is set when the run counted error bits, which it does only
	// with a metrics registry bound.
	observed bool

	frames  []cpFrame
	temps   []cpMeta // every frame's temporaries, in frame order
	locks   []uint64 // locks[0..lockTop]
	nextKey uint64
	now     uint64

	pages []uint32 // shadow pages touched so far
	cells []cpCell

	args     []cpMeta
	ret      cpMeta
	retValid bool

	flipEpoch uint32
	quires    []cpQuire

	counts        [KindWrongOutput + 1]int
	reports       []*Report
	totalOps      uint64
	maxOpErr      int
	outputMaxErr  int
	branchFlips   int
	uninstrWrites uint64
	opErr         obs.HistCounts
	instErr       []cpInstErr
}

// cpKey is the part of Config a checkpoint's state depends on: a runtime
// restores only a checkpoint taken under the same key.
type cpKey struct {
	oracle                 oracle.Kind
	precision              uint
	errBits, output, ploss int
	maxReports, dagDepth   int
	maxShadowBytes         int64
}

func (r *Runtime) cpKey() cpKey {
	c := r.cfg
	return cpKey{
		oracle: r.orc.Kind(), precision: r.orc.Precision(),
		errBits: c.ErrBitsThreshold, output: c.OutputThreshold, ploss: c.PrecisionLossThreshold,
		maxReports: c.MaxReports, dagDepth: c.MaxDAGDepth, maxShadowBytes: c.MaxShadowBytes,
	}
}

type cpFrame struct {
	fn      *ir.Func
	lockIdx int
}

// cpMeta is a temporary's metadata; its shadow value is vals' entry of the
// same index in its list, when written.
type cpMeta struct {
	prog    uint64
	inst    int32
	err     int32
	undef   bool
	written bool
	val     int32 // index in vals, or −1
}

type cpCell struct {
	addr  uint32
	epoch uint32
	meta  cpMeta
}

type cpQuire struct {
	typ   ir.Type
	acc   *big.Float // a copy of the 768-bit accumulator
	undef bool
}

type cpInstErr struct {
	id     int32
	counts obs.HistCounts
}

// valStore holds shadow values flat. A bigfp value is a fixed-size record
// of exponent, sign and form plus its mantissa words in one word slice: no
// bigfp.Float per value, and no allocation per value once the slices have
// grown. The fixed-precision oracles' values are float64 pairs.
type valStore struct {
	big    bool // the oracle's values are bigfp.Floats
	bigs   []bigRec
	words  []uint64
	hi, lo []float64
}

// bigRec is one bigfp.Float: ±0.words[off:off+n] × 2^exp when finite.
type bigRec struct {
	exp  int32
	off  uint32
	n    uint16
	form bigfp.Form
	neg  bool
}

// add stores v and returns its index.
func (s *valStore) add(v *oracle.Value) int32 {
	if s.big {
		form, neg, exp, mant := v.Big.Parts()
		s.bigs = append(s.bigs, bigRec{exp: exp, off: uint32(len(s.words)), n: uint16(len(mant)), form: form, neg: neg})
		s.words = append(s.words, mant...)
		return int32(len(s.bigs) - 1)
	}
	s.hi = append(s.hi, v.Hi)
	s.lo = append(s.lo, v.Lo)
	return int32(len(s.hi) - 1)
}

// get sets z to value i. It only reads the store, which concurrent
// restores share.
func (s *valStore) get(i int32, z *oracle.Value) {
	if s.big {
		rec := &s.bigs[i]
		z.Big.SetParts(rec.form, rec.neg, rec.exp, s.words[rec.off:rec.off+uint32(rec.n)])
		return
	}
	z.Hi, z.Lo = s.hi[i], s.lo[i]
}

// checkpointable reports whether the runtime's state is all a checkpoint
// carries: no DAG pointers or event stream (Tracing, Events), no
// profiler, sampler or callbacks that a skipped prefix would starve, and
// no injection announced but not yet delivered.
func (r *Runtime) checkpointable() bool {
	c := &r.cfg
	return !c.Tracing && r.events == nil && r.prof == nil && r.sample <= 1 &&
		c.OnError == nil && c.BreakOn == nil && !r.pendInj.valid
}

func (r *Runtime) saveMeta(s *valStore, t *TempMeta) cpMeta {
	m := cpMeta{prog: t.Prog, inst: t.Inst, err: t.Err, undef: t.Undef, written: t.written, val: -1}
	if t.written {
		m.val = s.add(&t.Real)
	}
	return m
}

func (r *Runtime) loadMeta(s *valStore, t *TempMeta, m *cpMeta) {
	t.Prog, t.Inst, t.Err, t.Undef, t.written = m.prog, m.inst, m.err, m.undef, m.written
	if m.val >= 0 {
		s.get(m.val, &t.Real)
	}
}

// SaveCheckpoint implements interp.Checkpointer.
func (r *Runtime) SaveCheckpoint() (any, bool) {
	if !r.checkpointable() {
		return nil, false
	}
	cp := &checkpoint{
		mod: r.mod, key: r.cpKey(), observed: r.reg != nil,
		locks:         slices.Clone(r.locks[:r.lockTop+1]),
		nextKey:       r.nextKey,
		now:           r.now,
		retValid:      r.retValid,
		flipEpoch:     r.flipEpoch,
		counts:        r.counts,
		reports:       slices.Clone(r.reports),
		totalOps:      r.totalOps,
		maxOpErr:      r.maxOpErr,
		outputMaxErr:  r.outputMaxErr,
		branchFlips:   r.branchFlips,
		uninstrWrites: r.uninstrWrites,
		opErr:         r.opErr,
	}
	// Size every list up front: a checkpoint is kept for the whole
	// campaign shard, so growth would leave its garbage behind each time.
	nTemps, nCells, nPages := 0, 0, 0
	for _, f := range r.frames {
		nTemps += len(f.temps)
	}
	for _, pg := range r.mem.pages {
		if pg != nil && pg.gen == r.mem.gen {
			nPages++
			nCells += len(pg.setAt)
		}
	}
	cp.frames = make([]cpFrame, 0, len(r.frames))
	cp.temps = make([]cpMeta, 0, nTemps)
	cp.pages = make([]uint32, 0, nPages)
	cp.cells = make([]cpCell, 0, nCells)
	cp.args = make([]cpMeta, 0, len(r.argStack))
	// Values are encoded into the runtime's reused store, then copied out
	// at their exact size.
	s := &r.cpVals
	*s = valStore{big: s.big, bigs: s.bigs[:0], words: s.words[:0], hi: s.hi[:0], lo: s.lo[:0]}
	for _, f := range r.frames {
		cp.frames = append(cp.frames, cpFrame{fn: f.fn, lockIdx: f.lockIdx})
		for i := range f.temps {
			cp.temps = append(cp.temps, r.saveMeta(s, &f.temps[i]))
		}
	}
	for p, pg := range r.mem.pages {
		if pg == nil || pg.gen != r.mem.gen {
			continue
		}
		cp.pages = append(cp.pages, uint32(p))
		for _, i := range pg.setAt {
			c := &pg.cells[i]
			cp.cells = append(cp.cells, cpCell{
				addr: uint32(p)<<pageBits | uint32(i), epoch: c.epoch,
				meta: cpMeta{prog: c.Prog, inst: c.Inst, err: c.Err, undef: c.Undef, written: true, val: s.add(&c.Real)},
			})
		}
	}
	for i := range r.argStack {
		cp.args = append(cp.args, r.saveMeta(s, &r.argStack[i]))
	}
	cp.ret = r.saveMeta(s, &r.retMeta)
	for t, q := range r.quires {
		cp.quires = append(cp.quires, cpQuire{typ: t, acc: new(big.Float).Copy(&q.acc), undef: q.undef})
	}
	cp.vals = valStore{
		big: s.big, bigs: slices.Clone(s.bigs), words: slices.Clone(s.words),
		hi: slices.Clone(s.hi), lo: slices.Clone(s.lo),
	}
	for id, c := range r.instErr {
		if c != nil {
			cp.instErr = append(cp.instErr, cpInstErr{id: int32(id), counts: c.HistCounts})
		}
	}
	return cp, true
}

// RestoreCheckpoint implements interp.Checkpointer. The runtime must have
// just been Reset, for a run of the module the checkpoint was taken from,
// under the same configuration; a runtime bound to a metrics registry
// takes only a checkpoint whose run was bound to one too. The prefix's detections are added to
// pd_detections_total here, since a full run counts each as it happens;
// its shadowed ops and error bits are restored run-locally and reach the
// registry with the rest of the run's at the attempt's end.
func (r *Runtime) RestoreCheckpoint(state any) bool {
	cp, ok := state.(*checkpoint)
	if !ok || cp.mod != r.mod || cp.key != r.cpKey() || !r.checkpointable() || r.reg != nil && !cp.observed {
		return false
	}
	s := &cp.vals
	copy(r.locks[:], cp.locks)
	r.lockTop = len(cp.locks) - 1
	r.nextKey = cp.nextKey
	r.now = cp.now
	temps := cp.temps
	for _, cf := range cp.frames {
		var f *shadowFrame
		if n := len(r.pool); n > 0 {
			f = r.pool[n-1]
			r.pool = r.pool[:n-1]
		} else {
			f = &shadowFrame{}
		}
		f.fn = cf.fn
		f.lockIdx = cf.lockIdx
		f.reset(cf.fn.NumRegs)
		for i := range f.temps {
			r.loadMeta(s, &f.temps[i], &temps[i])
		}
		temps = temps[len(f.temps):]
		r.frames = append(r.frames, f)
	}
	for _, p := range cp.pages {
		r.mem.touch(p)
	}
	for i := range cp.cells {
		c := &cp.cells[i]
		pg := r.mem.pages[c.addr>>pageBits]
		mm := &pg.cells[c.addr&pageMask]
		mm.Prog, mm.Inst, mm.Err, mm.Undef, mm.epoch = c.meta.prog, c.meta.inst, c.meta.err, c.meta.undef, c.epoch
		mm.Writer = mdRef{}
		s.get(c.meta.val, &mm.Real)
		pg.markSet(c.addr & pageMask)
	}
	for i := range cp.args {
		r.argStack = append(r.argStack, TempMeta{})
		r.loadMeta(s, &r.argStack[i], &cp.args[i])
	}
	r.loadMeta(s, &r.retMeta, &cp.ret)
	r.retValid = cp.retValid
	r.flipEpoch = cp.flipEpoch
	for _, cq := range cp.quires {
		q := r.squire(cq.typ)
		q.acc.Copy(cq.acc)
		q.undef = cq.undef
	}
	r.counts = cp.counts
	for k, v := range cp.counts {
		if c := r.metDet[k]; c != nil && v != 0 {
			c.Add(int64(v))
		}
	}
	r.reports = slices.Clone(cp.reports)
	r.totalOps = cp.totalOps
	r.maxOpErr = cp.maxOpErr
	r.outputMaxErr = cp.outputMaxErr
	r.branchFlips = cp.branchFlips
	r.uninstrWrites = cp.uninstrWrites
	r.opErr = cp.opErr
	for _, e := range cp.instErr {
		if int(e.id) >= len(r.instErr) {
			grown := make([]*instErrCounts, max(int(e.id)+1, len(r.mod.Registry)))
			copy(grown, r.instErr)
			r.instErr = grown
		}
		c := r.instErr[e.id]
		if c == nil {
			c = &instErrCounts{}
			r.instErr[e.id] = c
		}
		c.HistCounts = e.counts
	}
	return true
}
