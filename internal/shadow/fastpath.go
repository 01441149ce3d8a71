package shadow

import (
	"math"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
)

// The detection pass (checkOp) reads each program value through a single
// decode: each (bits, type) pair is decoded once into a pval and memoized on
// the TempMeta or MemMeta holding it, so a value produced by one operation
// and consumed by the next is decoded exactly once in its lifetime, instead
// of once for the float64 conversion, again for the binary exponent
// (cancellation check) and again for the regime/fraction geometry
// (precision-loss check) at every consumer. Load and Store move the memo
// between a temporary and its shadow-memory cell, so an array element
// re-loaded n times in a loop nest is decoded once, not n times.
//
// The memoization is sound because every pval field is a pure function of
// (bits, type): genericDecode — and the table/constant-folded fast
// decoders built from it — negate before extracting fields, so
// Decode(p) and Decode(Abs(p)) agree on all geometry, and for n ≤ 32
// every finite posit converts to float64 exactly with Ilogb(f) == Scale.
//
// This file also implements interp.FastShadow, the VM's ⟨32,2⟩
// add/sub/mul superinstruction, which computes the program result from the
// same memoized operand decodes.

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
	exp  int32   // binary exponent of f (math.Ilogb) == decoded Scale for posits
	// rbits/fbits are the precision-loss geometry: RegimeBits/FracBits of
	// Decode(Abs(bits)) — decoders negate first, so Decode and Decode∘Abs
	// agree on everything but the sign.
	rbits uint8
	fbits uint8
	neg   bool
	typ   uint8 // the ir.Type this decode was computed for (cache key)
	zero  bool  // the value is 0, NaN or ±Inf: no exponent to cancel
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
	r.binCore(id, kind, typ, dst, uint64(res), ta, tb)
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
