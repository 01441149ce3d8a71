package shadow

import (
	"math"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/posit"
	"positdebug/internal/profile"
	"positdebug/internal/ulp"
)

// errInfo carries the data needed to materialize a Report.
type errInfo struct {
	errBits int
	ulps    uint64
	program string
	shadow  string
	root    *TempMeta
}

func (r *Runtime) count(k Kind) {
	r.counts[k]++
	if c := r.metDet[k]; c != nil {
		c.Inc()
	}
}

// emit materializes a detailed report (respecting the cap) and invokes the
// user callback. The event stream, when bound, sees every detection — it is
// not subject to MaxReports; a bounded sink (obs.NewLog(n)) bounds
// memory instead.
func (r *Runtime) emit(k Kind, inst int32, info errInfo) {
	if r.events != nil {
		em := r.mod.Meta(inst)
		e := obs.NewEvent(obs.EvDetect)
		e.Detect = k.String()
		e.Inst = inst
		e.Func = em.Func
		e.Pos = metaPos(em)
		e.ErrBits = info.errBits
		e.Program = info.program
		e.Shadow = info.shadow
		r.events.Emit(e)
	}
	if r.cfg.OnError == nil && r.cfg.MaxReports > 0 && len(r.reports) >= r.cfg.MaxReports {
		return
	}
	meta := r.mod.Meta(inst)
	rep := &Report{
		Kind:    k,
		Inst:    inst,
		Func:    meta.Func,
		Pos:     metaPos(meta),
		Text:    meta.Text,
		ErrBits: info.errBits,
		ULPs:    info.ulps,
		Program: info.program,
		Shadow:  info.shadow,
	}
	if r.cfg.Tracing && info.root != nil {
		rep.DAG = r.buildDAG(info.root)
	}
	if r.cfg.MaxReports == 0 || len(r.reports) < r.cfg.MaxReports {
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

	// Exceptions first: the program produced NaR/NaN/Inf from operands
	// that were still finite. (NaR flowing through later operations is the
	// same exception, not a new one.)
	if pd.undef {
		opsWereFinite := true
		if ta != nil && ta.pvalFor(typ).undef {
			opsWereFinite = false
		}
		if tb != nil && tb.pvalFor(typ).undef {
			opsWereFinite = false
		}
		if opsWereFinite {
			r.count(KindNaR)
			if r.prof != nil {
				r.prof.Checked(id, 64)
				r.prof.Detect(id, profile.DetectNaR, 0)
			}
			r.emit(KindNaR, id, errInfo{
				errBits: 64,
				program: interp.FormatValue(typ, d.Prog),
				shadow:  r.orc.Format(&d.Real),
				root:    d,
			})
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
	if subLike && ta != nil && tb != nil && !ta.Undef && !tb.Undef {
		if cb := cancelled(ta.pvalFor(typ), tb.pvalFor(typ), pd); cb > 0 && factorTwoOff(progF, r.orc.Float64(&d.Real), r.orc.Sign(&d.Real)) {
			r.count(KindCancellation)
			if r.prof != nil {
				r.prof.Detect(id, profile.DetectCancellation, cb)
			}
			r.emit(KindCancellation, id, errInfo{
				errBits: bits, ulps: ulps,
				program: interp.FormatValue(typ, d.Prog),
				shadow:  r.orc.Format(&d.Real),
				root:    d,
			})
			return
		}
	}

	if typ.IsPosit() {
		cfg := typ.PositConfig()
		pb := posit.Bits(d.Prog)
		// Saturation: the operation produced maxpos/minpos magnitude while
		// the real value disagrees — a silently hidden overflow/underflow.
		if (cfg.IsMaxMag(pb) || cfg.IsMinMag(pb)) && bits > 0 {
			r.count(KindSaturation)
			if r.prof != nil {
				r.prof.Detect(id, profile.DetectSaturation, 0)
			}
			r.emit(KindSaturation, id, errInfo{
				errBits: bits, ulps: ulps,
				program: interp.FormatValue(typ, d.Prog),
				shadow:  r.orc.Format(&d.Real),
				root:    d,
			})
			return
		}
		// Loss of precision bits: the result's regime grew past both
		// operands', shrinking the fraction beyond the threshold (§3.4).
		if ta != nil && r.cfg.PrecisionLossThreshold > 0 {
			var ptb *pval
			if tb != nil {
				ptb = tb.pvalFor(typ)
			}
			if lost := fracLost(pd, ta.pvalFor(typ), ptb); lost >= r.cfg.PrecisionLossThreshold {
				r.count(KindPrecisionLoss)
				r.emit(KindPrecisionLoss, id, errInfo{
					errBits: bits, ulps: ulps,
					program: interp.FormatValue(typ, d.Prog),
					shadow:  r.orc.Format(&d.Real),
					root:    d,
				})
				return
			}
		}
	}

	if r.cfg.ErrBitsThreshold > 0 && bits >= r.cfg.ErrBitsThreshold {
		r.count(KindHighError)
		r.emit(KindHighError, id, errInfo{
			errBits: bits, ulps: ulps,
			program: interp.FormatValue(typ, d.Prog),
			shadow:  r.orc.Format(&d.Real),
			root:    d,
		})
	}
}

// cancelled computes cbits = max(exp(a), exp(b)) − exp(result): the number
// of leading bits an additive operation cancelled. Zero, NaR, NaN and Inf
// operands (pval.zero) have nothing to cancel; a zero result from nonzero
// operands cancels everything (returns a large count).
func cancelled(pa, pb, pr *pval) int {
	if pa.zero || pb.zero {
		return 0 // nothing to cancel
	}
	top := pa.exp
	if pb.exp > top {
		top = pb.exp
	}
	if pr.zero {
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
// NaR values (pval.zero) have no geometry and are skipped; pb may be nil.
func fracLost(pr, pa, pb *pval) int {
	if pr.zero {
		return 0
	}
	bestFrac := -1
	maxReg := 0
	if !pa.zero {
		bestFrac = int(pa.fbits)
		maxReg = int(pa.rbits)
	}
	if pb != nil && !pb.zero {
		if int(pb.fbits) > bestFrac {
			bestFrac = int(pb.fbits)
		}
		if int(pb.rbits) > maxReg {
			maxReg = int(pb.rbits)
		}
	}
	if bestFrac < 0 || int(pr.rbits) <= maxReg {
		return 0
	}
	return bestFrac - int(pr.fbits)
}

// checkOutputAt applies the output threshold to printed/returned values.
func (r *Runtime) checkOutputAt(id int32, typ ir.Type, s *TempMeta) {
	progF := interp.ToFloat64(typ, s.Prog)
	if s.Undef {
		return
	}
	if math.IsNaN(progF) || math.IsInf(progF, 0) {
		r.count(KindWrongOutput)
		r.emit(KindWrongOutput, id, errInfo{
			errBits: 64,
			program: interp.FormatValue(typ, s.Prog),
			shadow:  r.orc.Format(&s.Real),
			root:    s,
		})
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
		r.emit(KindWrongOutput, id, errInfo{
			errBits: bits, ulps: ulps,
			program: interp.FormatValue(typ, s.Prog),
			shadow:  r.orc.Format(&s.Real),
			root:    s,
		})
	}
}
