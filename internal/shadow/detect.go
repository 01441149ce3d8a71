package shadow

import (
	"math"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/ulp"
)

// errInfo carries the data needed to materialize a Report. The program
// and shadow values stay unformatted (a type and bits, a shadow value)
// until emit knows an event sink, a kept report, OnError or BreakOn will
// read them. A branch flip adds its second operand (prog2, real2); a wrong
// cast has no shadow value but the shadow execution's integer (shadowInt).
type errInfo struct {
	errBits   int
	ulps      uint64
	typ       ir.Type
	prog      uint64
	real      *oracle.Value
	prog2     uint64
	real2     *oracle.Value
	shadowInt int64
	root      *TempMeta
}

// valueErr is the errInfo of one value t read as typ.
func valueErr(errBits int, ulps uint64, typ ir.Type, t *TempMeta) errInfo {
	return errInfo{errBits: errBits, ulps: ulps, typ: typ, prog: t.Prog, real: &t.Real, root: t}
}

// format renders the program and shadow values of info.
func (r *Runtime) format(info *errInfo) (program, shadow string) {
	program = interp.FormatValue(info.typ, info.prog)
	switch {
	case info.real2 != nil:
		program += " vs " + interp.FormatValue(info.typ, info.prog2)
		shadow = r.orc.Format(info.real) + " vs " + r.orc.Format(info.real2)
	case info.real != nil:
		shadow = r.orc.Format(info.real)
	default:
		shadow = interp.FormatValue(ir.I64, uint64(info.shadowInt))
	}
	return program, shadow
}

func (r *Runtime) count(k Kind) {
	r.counts[k]++
	if c := r.metDet[k]; c != nil {
		c.Inc()
	}
}

// emit materializes a detailed report and hands it to the configured
// readers: the report list (up to MaxReports), OnError and BreakOn, which
// see every detection whatever the cap. The event stream, when bound, also
// sees every detection; a bounded sink (obs.NewLog(n)) bounds memory
// instead. A detection nothing reads formats nothing.
func (r *Runtime) emit(k Kind, inst int32, info errInfo) {
	keep := r.cfg.MaxReports == 0 || len(r.reports) < r.cfg.MaxReports
	report := keep || r.cfg.OnError != nil || r.cfg.BreakOn != nil
	if r.events == nil && !report {
		return
	}
	program, shadow := r.format(&info)
	meta := r.mod.Meta(inst)
	if r.events != nil {
		e := obs.NewEvent(obs.EvDetect)
		e.Detect = k.String()
		e.Inst = inst
		e.Func = meta.Func
		e.Pos = metaPos(meta)
		e.ErrBits = info.errBits
		e.Program = program
		e.Shadow = shadow
		r.events.Emit(e)
	}
	if !report {
		return
	}
	rep := &Report{
		Kind:    k,
		Inst:    inst,
		Func:    meta.Func,
		Pos:     metaPos(meta),
		Text:    meta.Text,
		ErrBits: info.errBits,
		ULPs:    info.ulps,
		Program: program,
		Shadow:  shadow,
	}
	if r.cfg.Tracing && info.root != nil {
		rep.DAG = r.buildDAG(info.root)
	}
	if keep {
		r.reports = append(r.reports, rep)
	}
	if r.cfg.OnError != nil {
		r.cfg.OnError(rep)
	}
	if r.cfg.BreakOn != nil && r.cfg.BreakOn(rep) {
		panic(&interp.Stopped{Reason: rep})
	}
}

// checkOp classifies the error of a freshly produced value (§3.4). subLike
// marks additive operations, the only ones that can cancel. Every
// conversion, exponent and regime/fraction geometry it reads comes from the
// memoized decode of the value's (bits, type) pair (pvalFor), so a value
// produced by one operation and consumed by the next is decoded once in its
// lifetime.
func (r *Runtime) checkOp(id int32, typ ir.Type, subLike bool, d, ta, tb *TempMeta) {
	pd := d.pvalFor(typ)
	progF := pd.f
	// The operands' decodes, fetched once for the checks that read them:
	// the exception test, cancellation and precision loss. A nil operand
	// has none.
	var pa, pb *pval
	if pd.undef() || subLike || typ.IsPosit() {
		if ta != nil {
			pa = ta.pvalFor(typ)
		}
		if tb != nil {
			pb = tb.pvalFor(typ)
		}
	}

	// Exceptions first: the program produced NaR/NaN/Inf from operands
	// that were still finite. (NaR flowing through later operations is the
	// same exception, not a new one.)
	if pd.undef() {
		if (pa == nil || !pa.undef()) && (pb == nil || !pb.undef()) {
			r.count(KindNaR)
			if r.prof != nil {
				r.prof.Checked(id, 64)
				r.prof.Detect(id, profile.DetectNaR, 0)
			}
			r.emit(KindNaR, id, valueErr(64, 0, typ, d))
			d.Err = 64
		}
		return
	}
	if d.Undef {
		// Shadow blew up (divide by shadow-zero, etc.) while the program
		// kept a finite value; nothing meaningful to compare.
		return
	}

	ulps := r.orc.Ulps(progF, &d.Real)
	bits := ulp.Bits(ulps)
	d.Err = int32(bits)
	if bits > r.maxOpErr {
		r.maxOpErr = bits
	}
	if r.reg != nil {
		r.observeErr(id, bits)
	}
	if r.prof != nil {
		r.prof.Checked(id, bits)
	}

	// Catastrophic cancellation (§3.4): cancelled leading bits AND the
	// computed result at least a factor of ε=2 away from the real result.
	if subLike && pa != nil && pb != nil && !ta.Undef && !tb.Undef {
		if cb := cancelled(pa, pb, pd); cb > 0 && factorTwoOff(progF, r.orc.Float64(&d.Real), r.orc.Sign(&d.Real)) {
			r.count(KindCancellation)
			if r.prof != nil {
				r.prof.Detect(id, profile.DetectCancellation, cb)
			}
			r.emit(KindCancellation, id, valueErr(bits, ulps, typ, d))
			return
		}
	}

	if typ.IsPosit() {
		// Saturation: the operation produced maxpos/minpos magnitude while
		// the real value disagrees — a silently hidden overflow/underflow.
		if bits > 0 && saturated(typ, d.Prog) {
			r.count(KindSaturation)
			if r.prof != nil {
				r.prof.Detect(id, profile.DetectSaturation, 0)
			}
			r.emit(KindSaturation, id, valueErr(bits, ulps, typ, d))
			return
		}
		// Loss of precision bits: the result's regime grew past both
		// operands', shrinking the fraction beyond the threshold (§3.4).
		if pa != nil && r.cfg.PrecisionLossThreshold > 0 {
			if lost := fracLost(pd, pa, pb); lost >= r.cfg.PrecisionLossThreshold {
				r.count(KindPrecisionLoss)
				r.emit(KindPrecisionLoss, id, valueErr(bits, ulps, typ, d))
				return
			}
		}
	}

	if r.cfg.ErrBitsThreshold > 0 && bits >= r.cfg.ErrBitsThreshold {
		r.count(KindHighError)
		r.emit(KindHighError, id, valueErr(bits, ulps, typ, d))
	}
}

// saturated reports whether the posit pattern bits of typ has magnitude
// maxpos or minpos: Config.IsMaxMag || IsMinMag on the bits alone. Only a
// pattern whose sign bit is its top set bit is negated, as Abs does, so
// NaR and patterns with bits above the width match neither.
func saturated(typ ir.Type, bits uint64) bool {
	n := typ.PositConfig().N
	mask := uint64(1)<<n - 1
	mag := bits
	if bits>>(n-1) == 1 {
		mag = -bits & mask
	}
	return mag == 1 || mag == mask>>1
}

// cancelled computes cbits = max(exp(a), exp(b)) − exp(result): the number
// of leading bits an additive operation cancelled. Zero, NaR, NaN and Inf
// operands (pval.zero()) have nothing to cancel; a zero result from nonzero
// operands cancels everything (returns a large count).
func cancelled(pa, pb, pr *pval) int {
	if pa.zero() || pb.zero() {
		return 0 // nothing to cancel
	}
	top := pa.exp
	if pb.exp > top {
		top = pb.exp
	}
	if pr.zero() {
		return 64
	}
	return int(top - pr.exp)
}

// factorTwoOff implements the paper's ε test: v ≥ 2r or v ≤ r/2 on
// magnitudes, with the degenerate zero cases counted as catastrophic. It
// takes the shadow value pre-rounded to float64 (plus its exact sign) so
// one implementation serves every oracle; for bigfp this matches the old
// big.Float comparison because round-to-nearest preserves magnitude order
// and |fl(x)| == fl(|x|).
func factorTwoOff(computed, shadowF float64, shadowSign int) bool {
	v := math.Abs(computed)
	if shadowSign == 0 {
		return v != 0
	}
	rf := math.Abs(shadowF)
	if v == 0 {
		return true
	}
	// Sign disagreement is at least as bad as a factor-2 error.
	if (computed < 0) != (shadowSign < 0) {
		return true
	}
	return v >= 2*rf || v <= rf/2
}

// fracLost computes how many fraction bits the result pr lost relative to
// its best operand when its regime grew (tapered-precision loss). Zero and
// NaR values (pval.zero()) have no geometry and are skipped; pb may be nil.
func fracLost(pr, pa, pb *pval) int {
	if pr.zero() {
		return 0
	}
	bestFrac := -1
	maxReg := 0
	if !pa.zero() {
		bestFrac = pa.fbits()
		maxReg = pa.rbits()
	}
	if pb != nil && !pb.zero() {
		if pb.fbits() > bestFrac {
			bestFrac = pb.fbits()
		}
		if pb.rbits() > maxReg {
			maxReg = pb.rbits()
		}
	}
	if bestFrac < 0 || pr.rbits() <= maxReg {
		return 0
	}
	return bestFrac - pr.fbits()
}

// checkOutputAt applies the output threshold to printed/returned values.
func (r *Runtime) checkOutputAt(id int32, typ ir.Type, s *TempMeta) {
	progF := interp.ToFloat64(typ, s.Prog)
	if s.Undef {
		return
	}
	if math.IsNaN(progF) || math.IsInf(progF, 0) {
		r.count(KindWrongOutput)
		r.emit(KindWrongOutput, id, valueErr(64, 0, typ, s))
		if r.outputMaxErr < 64 {
			r.outputMaxErr = 64
		}
		return
	}
	ulps := r.orc.Ulps(progF, &s.Real)
	bits := ulp.Bits(ulps)
	if bits > r.outputMaxErr {
		r.outputMaxErr = bits
	}
	if r.cfg.OutputThreshold > 0 && bits >= r.cfg.OutputThreshold {
		r.count(KindWrongOutput)
		r.emit(KindWrongOutput, id, valueErr(bits, ulps, typ, s))
	}
}
