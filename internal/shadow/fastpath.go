package shadow

import (
	"math"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
	"positdebug/internal/profile"
	"positdebug/internal/ulp"
)

// This file implements interp.FastShadow: the VM's fused superinstructions
// deliver shadow events here, except an event a fault injector corrupts,
// which takes the regular Hooks method. Sampled and timed runs keep this
// path, since the compute events apply the same take and timer gates as
// their Hooks counterparts. The contract is
// byte-identity with the regular Hooks methods — same reports, same
// counters, same DAGs, same panics — which the differential suite
// (backend_diff_test.go) enforces end to end. What the
// fast path buys is a single posit decode per program value: the regular
// detection pass re-derives the float64 conversion, the binary exponent
// (cancellation check) and the regime/fraction geometry (precision-loss
// check) from the raw bits separately, decoding the same posit up to three
// times per operation and once more at every consumer. Here each (bits,
// type) pair is decoded once into a pval and memoized on the TempMeta, so
// a value produced by one operation and consumed by the next is decoded
// exactly once in its lifetime.
//
// The memoization is sound because every pval field is a pure function of
// (bits, type): genericDecode — and the table/constant-folded fast
// decoders built from it — negate before extracting fields, so
// Decode(p) and Decode(Abs(p)) agree on all geometry, and for n ≤ 32
// every finite posit converts to float64 exactly with Ilogb(f) == Scale.

var _ interp.FastShadow = (*Runtime)(nil)

// pval is the single-decode view of one program value: everything the
// detection pass (checkOp and its helpers) derives from the (type, bits)
// pair. It is embedded in every TempMeta and MemMeta, so the posit decode
// is stored in compacted fields (32 bytes total) rather than a full
// posit.Decoded; decoded() rebuilds the struct on the stack for the
// fused-arithmetic consumers.
type pval struct {
	f    float64 // interp.ToFloat64(typ, bits), bit-exact
	frac uint64  // decoded fraction; valid iff posit, finite, nonzero
	exp  int32   // binary exponent of f (valueExp) == decoded Scale for posits
	// rbits/fbits are the precision-loss geometry: RegimeBits/FracBits of
	// Decode(Abs(bits)) — decoders negate first, so Decode and Decode∘Abs
	// agree on everything but the sign.
	rbits uint8
	fbits uint8
	neg   bool
	typ   uint8 // the ir.Type this decode was computed for (cache key)
	zero  bool  // valueExp's "zero": the value is 0, NaN or ±Inf
	undef bool  // NaN or ±Inf (the posit NaR pattern)
	ok    bool  // set once computed; zero pval is never a valid decode
}

// decoded rebuilds the posit.Decoded this pval was computed from, the
// operand form AddDecoded/MulDecoded consume in the fused-arithmetic
// superinstructions.
func (p *pval) decoded() posit.Decoded {
	return posit.Decoded{
		Neg: p.neg, Scale: int(p.exp), Frac: p.frac,
		RegimeBits: int(p.rbits), FracBits: int(p.fbits),
	}
}

// computePval decodes (typ, bits) once. For posits this is the only
// Decode; float64/float32/int64 conversions are cheap bit casts plus one
// Ilogb.
func computePval(typ ir.Type, bits uint64) pval {
	switch typ {
	case ir.P8, ir.P16, ir.P32:
		cfg := typ.PositConfig()
		pb := posit.Bits(bits)
		if pb == 0 {
			return pval{typ: uint8(typ), zero: true, ok: true}
		}
		if cfg.IsNaR(pb) {
			return pval{f: math.NaN(), typ: uint8(typ), zero: true, undef: true, ok: true}
		}
		d := cfg.Decode(pb)
		// float64(d.Frac) is a positive double with unbiased exponent 63
		// (or 64 when the 53-bit rounding carries out), so Ldexp(·, Scale-63)
		// reduces to adding Scale-63 to the exponent field: posit scales are
		// bounded (|Scale| ≤ 120 for n ≤ 32), the sum stays strictly inside
		// the normal range, and the bit-add is exact — no Ldexp call.
		f := math.Float64frombits(math.Float64bits(float64(d.Frac)) +
			uint64(int64(d.Scale-63))<<52)
		if d.Neg {
			f = -f
		}
		// Frac ∈ [2^63, 2^64) makes |f| ∈ [2^Scale, 2^(Scale+1)), and every
		// n ≤ 32 posit is a normal double, so Ilogb(f) == Scale exactly.
		return pval{
			f: f, frac: d.Frac, exp: int32(d.Scale),
			rbits: uint8(d.RegimeBits), fbits: uint8(d.FracBits),
			neg: d.Neg, typ: uint8(typ), ok: true,
		}
	default:
		f := interp.ToFloat64(typ, bits)
		p := pval{f: f, typ: uint8(typ), ok: true}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			p.zero, p.undef = true, true
		} else if f == 0 {
			p.zero = true
		} else {
			p.exp = int32(math.Ilogb(f))
		}
		return p
	}
}

// pvalFor returns the decoded view of t.Prog read as typ, memoized on the
// metadata cell. The cache key is the (bits, type) pair itself, so writes
// to Prog by any path — regular hooks included — simply miss rather than
// serve stale data.
func (t *TempMeta) pvalFor(typ ir.Type) *pval {
	if !t.pv.ok || t.pvBits != t.Prog || t.pv.typ != uint8(typ) {
		t.pv = computePval(typ, t.Prog)
		t.pvBits = t.Prog
	}
	return &t.pv
}

// FastConst et al. implement interp.FastShadow. Const, Mov, Load and
// Store have no redundant decodes in their hot paths (metadata copies and
// shadow-memory traffic dominate), so they share the regular
// implementations; the arithmetic events route their detection pass
// through fastCheckOp.

// FastConst implements interp.FastShadow.
func (r *Runtime) FastConst(id int32, typ ir.Type, dst int32, bits uint64) {
	r.Const(id, typ, dst, bits)
}

// FastMov implements interp.FastShadow.
func (r *Runtime) FastMov(id int32, typ ir.Type, dst, src int32, bits uint64) {
	r.Mov(id, typ, dst, src, bits)
}

// FastBin implements interp.FastShadow.
func (r *Runtime) FastBin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	r.binImpl(id, kind, typ, dst, a, b, dstVal, aVal, bVal, true)
	r.stopTimer(id, t0)
}

// FastBinP32 implements interp.FastShadow: the ⟨32,2⟩ add/sub/mul
// superinstruction hands the base arithmetic to the runtime too, so the
// operands' memoized decodes feed AddDecoded/MulDecoded directly instead
// of being re-derived from the raw bits inside Config32.Add/Sub/Mul. The
// special cases run on the raw bits exactly as the Config32 entry points
// do, so the returned result is bit-identical by construction
// (fastpath_test.go drives the equivalence over random and special
// operands).
func (r *Runtime) FastBinP32(id int32, kind ir.BinKind, dst, a, b int32, aVal, bVal uint64) uint64 {
	if !r.take(id) {
		return skippedP32(kind, aVal, bVal)
	}
	t0 := r.startTimer()
	const typ = ir.P32
	cfg := posit.Config32
	// ensure(a); ensure(b) with the frame fetched once — this runs once
	// per fused arithmetic op, so the repeated frames[len-1] indirection
	// inside temp() is worth hoisting.
	temps := r.frames[len(r.frames)-1].temps
	ta, tb := &temps[a], &temps[b]
	if !ta.written || ta.Prog != aVal {
		r.initFromProgram(ta, typ, aVal)
	}
	if !tb.written || tb.Prog != bVal {
		r.initFromProgram(tb, typ, bVal)
	}
	pa := ta.pvalFor(typ)
	pb := tb.pvalFor(typ)
	var res posit.Bits
	switch {
	case pa.undef || pb.undef:
		res = cfg.NaR()
	case kind == ir.BinMul:
		if aVal == 0 || bVal == 0 {
			res = 0
		} else {
			res = cfg.MulDecoded(pa.decoded(), pb.decoded())
		}
	case kind == ir.BinAdd:
		switch {
		case aVal == 0:
			res = posit.Bits(bVal)
		case bVal == 0:
			res = posit.Bits(aVal)
		default:
			res = cfg.AddDecoded(pa.decoded(), pb.decoded())
		}
	default: // ir.BinSub: Add(a, Neg(b)); Decode(Neg(b)) is Decode(b) with Neg flipped
		switch {
		case aVal == 0:
			res = cfg.Neg(posit.Bits(bVal))
		case bVal == 0:
			res = posit.Bits(aVal)
		default:
			db := pb.decoded()
			db.Neg = !db.Neg
			res = cfg.AddDecoded(pa.decoded(), db)
		}
	}
	r.binCore(id, kind, typ, dst, uint64(res), ta, tb, true)
	r.stopTimer(id, t0)
	return uint64(res)
}

// skippedP32 computes the program result of a sampled-out FastBinP32 —
// bit-identical to Config32's arithmetic — leaving shadow metadata
// untouched, as a skipped Bin on the tree-walker does.
func skippedP32(kind ir.BinKind, aVal, bVal uint64) uint64 {
	a, b := posit.Bits(aVal), posit.Bits(bVal)
	switch kind {
	case ir.BinAdd:
		return uint64(posit.Config32.Add(a, b))
	case ir.BinSub:
		return uint64(posit.Config32.Sub(a, b))
	default: // BinMul — the only other fused kind
		return uint64(posit.Config32.Mul(a, b))
	}
}

// FastUn implements interp.FastShadow.
func (r *Runtime) FastUn(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	r.unImpl(id, kind, typ, dst, a, dstVal, aVal, true)
	r.stopTimer(id, t0)
}

// FastCast implements interp.FastShadow.
func (r *Runtime) FastCast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	if !r.take(id) {
		return
	}
	t0 := r.startTimer()
	r.castImpl(id, from, to, dst, src, dstVal, srcVal, true)
	r.stopTimer(id, t0)
}

// FastLoad implements interp.FastShadow. Beyond the regular Load it keeps
// the single-decode invariant across memory: a posit loaded from a cell
// with a matching memoized decode inherits it, and a cache miss decodes
// eagerly into both the temporary and the cell, so an array element
// re-loaded n times in a loop nest is decoded once, not n times.
func (r *Runtime) FastLoad(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {
	mm, d := r.loadImpl(id, typ, dst, addr, bits)
	if !typ.IsPosit() {
		return
	}
	if mm.pv.ok && mm.pvBits == d.Prog && mm.pv.typ == uint8(typ) {
		d.pv, d.pvBits = mm.pv, mm.pvBits
		return
	}
	pv := d.pvalFor(typ)
	mm.pv, mm.pvBits = *pv, d.pvBits
}

// FastStore implements interp.FastShadow. The source temporary's memoized
// decode (if it matches the stored bits) moves into the cell, priming the
// cache for later loads of the same address.
func (r *Runtime) FastStore(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {
	mm, s := r.storeImpl(id, typ, addr, src, bits)
	if typ.IsPosit() && s.pv.ok && s.pvBits == mm.Prog && s.pv.typ == uint8(typ) {
		mm.pv, mm.pvBits = s.pv, s.pvBits
	}
}

// fastCheckOp is checkOp with every ToFloat64/Decode replaced by the
// memoized pval of the same (bits, type) pair. Control flow, counters,
// report emission and metadata side effects mirror checkOp line for line;
// fastpath_test.go checks the derived quantities against the slow helpers
// over exhaustive/ randomized patterns, and the backend differential suite
// checks the observable behavior end to end.
func (r *Runtime) fastCheckOp(id int32, typ ir.Type, subLike bool, d, ta, tb *TempMeta) {
	pd := d.pvalFor(typ)
	progF := pd.f

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
		return
	}

	ulps := r.orc.Ulps(progF, &d.Real, &r.ulpScratch)
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

	if subLike && ta != nil && tb != nil && !ta.Undef && !tb.Undef {
		if cb := fastCancelledBits(ta.pvalFor(typ), tb.pvalFor(typ), pd); cb > 0 && factorTwoOff(progF, r.orc.Float64(&d.Real), r.orc.Sign(&d.Real)) {
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
		if ta != nil && r.cfg.PrecisionLossThreshold > 0 {
			var ptb *pval
			if tb != nil {
				ptb = tb.pvalFor(typ)
			}
			if lost := fastFracBitsLost(pd, ta.pvalFor(typ), ptb); lost >= r.cfg.PrecisionLossThreshold {
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

// fastCancelledBits is cancelledBits on pre-decoded values: pval.zero is
// exactly valueExp's zero predicate and pval.exp its exponent.
func fastCancelledBits(pa, pb, pr *pval) int {
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

// fastFracBitsLost is fracBitsLost on pre-decoded values: pval.zero covers
// the zero-pattern and NaR skips (the only posits with no geometry), and
// rbits/fbits carry Decode(Abs)'s RegimeBits/FracBits.
func fastFracBitsLost(pr, pa, pb *pval) int {
	if pr.zero {
		return 0
	}
	bestFrac := -1
	maxReg := 0
	if pa != nil && !pa.zero {
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
