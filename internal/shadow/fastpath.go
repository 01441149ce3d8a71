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

// pval is the single-decode view of one program value: everything the
// detection pass (checkOp and its helpers) derives from the (type, bits)
// pair. It is embedded in every TempMeta and MemMeta as two words (16
// bytes): the float64 conversion, and the exponent beside one uint32 that
// packs the precision-loss geometry, the type and three flags. set writes
// every word in place.
type pval struct {
	f   float64 // interp.ToFloat64(typ, bits), bit-exact
	exp int32   // binary exponent of f (math.Ilogb) == decoded Scale for posits
	// meta packs, from the low byte up: RegimeBits and FracBits of
	// Decode(Abs(bits)) (decoders negate first, so Decode and Decode∘Abs
	// agree on everything but the sign), the ir.Type the decode was
	// computed for, and the pv* flags.
	meta uint32
}

const (
	pvFbitsShift = 8
	pvTypeShift  = 16

	pvOK    = 1 << 24 // set once computed; the zero pval is never a valid decode
	pvZero  = 1 << 25 // the value is 0, NaN or ±Inf: no exponent to cancel
	pvUndef = 1 << 26 // NaN or ±Inf (the posit NaR pattern)

	// pvKey selects the memo key's type and pvOK: is tests both in one
	// masked compare.
	pvKey = 0xff<<pvTypeShift | pvOK
)

func (p *pval) rbits() int   { return int(uint8(p.meta)) }
func (p *pval) fbits() int   { return int(uint8(p.meta >> pvFbitsShift)) }
func (p *pval) typ() ir.Type { return ir.Type(uint8(p.meta >> pvTypeShift)) }
func (p *pval) ok() bool     { return p.meta&pvOK != 0 }
func (p *pval) zero() bool   { return p.meta&pvZero != 0 }
func (p *pval) undef() bool  { return p.meta&pvUndef != 0 }

// is reports whether p, memoized for the bits key, is the decode of bits
// read as typ.
func (p *pval) is(key uint64, typ ir.Type, bits uint64) bool {
	return key == bits && p.meta&pvKey == uint32(typ)<<pvTypeShift|pvOK
}

// set decodes (typ, bits) into p, overwriting every word. ⟨32,2⟩ decodes
// through posit.Decode32, ⟨8,0⟩ and ⟨16,1⟩ through their tables; this is
// the only posit Decode a value gets. Every other type has no posit
// geometry, and its exponent comes from its float64 conversion's bits.
func (p *pval) set(typ ir.Type, bits uint64) {
	meta := uint32(typ)<<pvTypeShift | pvOK
	switch typ {
	case ir.F64:
		p.setFloat(math.Float64frombits(bits), meta)
	case ir.F32:
		p.setFloat(float64(math.Float32frombits(uint32(bits))), meta)
	case ir.P8, ir.P16, ir.P32:
		cfg := typ.PositConfig()
		switch pb := posit.Bits(bits); {
		case pb == 0:
			*p = pval{meta: meta | pvZero}
		case pb == cfg.NaR():
			*p = pval{f: math.NaN(), meta: meta | pvZero | pvUndef}
		case typ == ir.P32:
			p.setPosit(posit.Decode32(pb), meta)
		default:
			p.setPosit(cfg.Decode(pb), meta)
		}
	default:
		p.setFloat(interp.ToFloat64(typ, bits), meta)
	}
}

// setPosit fills p from the decode of a finite nonzero posit.
func (p *pval) setPosit(d posit.Decoded, meta uint32) {
	// For n ≤ 32 a posit has at most 27 fraction bits below Frac's hidden
	// bit 63, so Frac's low 11 bits are zero and its bits 62..11 are the
	// double's mantissa field exactly, and |Scale| ≤ 120 keeps the exponent
	// field Scale+1023 normal: f is assembled from its fields, exact, with
	// no conversion or Ldexp, and Ilogb(f) == Scale.
	fb := uint64(d.Scale+1023)<<52 | d.Frac<<1>>12
	if d.Neg {
		fb |= 1 << 63
	}
	p.f, p.exp = math.Float64frombits(fb), int32(d.Scale)
	p.meta = meta | uint32(d.RegimeBits) | uint32(d.FracBits)<<pvFbitsShift
}

// setFloat fills p from a value's float64 conversion. A normal double's
// exponent field is its Ilogb; only subnormals (f64 values below 2^-1022)
// call math.Ilogb.
func (p *pval) setFloat(f float64, meta uint32) {
	b := math.Float64bits(f)
	exp := int32(b>>52) & 0x7ff
	switch {
	case exp == 0x7ff: // NaN or ±Inf
		exp = 0
		meta |= pvZero | pvUndef
	case exp != 0:
		exp -= 1023
	case b<<1 == 0: // ±0
		meta |= pvZero
	default:
		exp = int32(math.Ilogb(f))
	}
	p.f, p.exp, p.meta = f, exp, meta
}

// pvalFor returns the decoded view of t.Prog read as typ, memoized on the
// metadata cell. The cache key is the (bits, type) pair itself, so writes
// to Prog by any path — regular hooks included — simply miss rather than
// serve stale data.
func (t *TempMeta) pvalFor(typ ir.Type) *pval {
	if !t.pv.is(t.pvBits, typ, t.Prog) {
		t.pv.set(typ, t.Prog)
		t.pvBits = t.Prog
	}
	return &t.pv
}
