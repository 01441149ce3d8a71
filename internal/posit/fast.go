package posit

import "math/bits"

// This file holds the fast paths for the three standard configurations.
// The generic ⟨n,es⟩ pipeline decodes fields with variable shifts and
// assembles the rounding candidate through a 128-bit bit accumulator; for
// the shadow-execution hot loop (decode two operands, one exact op, one
// rounding) that generality is the dominant cost. Here:
//
//   - Config16 and Config8 decode from exhaustive lookup tables (2^16 and
//     2^8 entries) built at init() by running the generic decoder over
//     every pattern, so the tables are equal to the reference by
//     construction (the differential tests in fast_test.go enforce this).
//   - Config16 Add/Mul run on 48-bit integer significands with a computed
//     encoder that performs round-to-nearest-even inline when the rounding
//     position falls in the fraction field, deferring to the generic
//     midpoint comparison only near saturation where consecutive posits
//     are geometrically spaced.
//   - Config8 Add/Mul are complete 2^16-entry result tables (the whole
//     function is only 64 KiB), again built from the generic reference.
//   - Config32 decodes through Decode32, the generic algorithm with n=32,
//     es=2 folded into constants so every field shift is immediate, and
//     its sign and regime branches turned into masks.
//
// All entry points stay behind the Config API (Decode/Add/Sub/Mul
// dispatch on the configuration value; Decode32 is also exported for the
// shadow runtime's memoized decode), so interp, shadow, the quire and
// the refactorer speed up without source changes. The Generic* methods
// keep the table-free reference reachable for differential tests and the
// ablation benchmarks.

// dec16 is a packed Decoded for ⟨16,1⟩: frac is Decoded.Frac>>48 (the
// hidden bit lands at bit 15; the low 48 bits of Frac are provably zero
// for every 16-bit pattern), scale spans [−30,29] and fits int8.
type dec16 struct {
	frac  uint16
	scale int8
	reg   uint8
	fb    uint8
	neg   bool
	_     uint16 // pad to 8 bytes so table indexing is a shift, not a multiply
}

func (e dec16) decoded() Decoded {
	return Decoded{
		Neg:        e.neg,
		Scale:      int(e.scale),
		Frac:       uint64(e.frac) << 48,
		RegimeBits: int(e.reg),
		FracBits:   int(e.fb),
	}
}

// dec8 is the ⟨8,0⟩ analogue: frac is Decoded.Frac>>56 (hidden bit 7).
type dec8 struct {
	frac  uint8
	scale int8
	reg   uint8
	fb    uint8
	neg   bool
}

func (e dec8) decoded() Decoded {
	return Decoded{
		Neg:        e.neg,
		Scale:      int(e.scale),
		Frac:       uint64(e.frac) << 56,
		RegimeBits: int(e.reg),
		FracBits:   int(e.fb),
	}
}

var (
	p16dec [1 << 16]dec16
	p8dec  [1 << 8]dec8
	// Full result tables for ⟨8,0⟩ addition and multiplication, indexed by
	// a<<8|b. Built from the generic reference, so NaR/zero handling and
	// rounding are identical by construction.
	p8add [1 << 16]uint8
	p8mul [1 << 16]uint8
)

func init() {
	for i := range p16dec {
		d := Config16.genericDecode(Bits(i))
		p16dec[i] = dec16{
			frac:  uint16(d.Frac >> 48),
			scale: int8(d.Scale),
			reg:   uint8(d.RegimeBits),
			fb:    uint8(d.FracBits),
			neg:   d.Neg,
		}
	}
	for i := range p8dec {
		d := Config8.genericDecode(Bits(i))
		p8dec[i] = dec8{
			frac:  uint8(d.Frac >> 56),
			scale: int8(d.Scale),
			reg:   uint8(d.RegimeBits),
			fb:    uint8(d.FracBits),
			neg:   d.Neg,
		}
	}
	for a := 0; a < 1<<8; a++ {
		for b := 0; b < 1<<8; b++ {
			p8add[a<<8|b] = uint8(Config8.GenericAdd(Bits(a), Bits(b)))
			p8mul[a<<8|b] = uint8(Config8.GenericMul(Bits(a), Bits(b)))
		}
	}
}

const (
	nar16    = Bits(0x8000)
	maxPos16 = Bits(0x7fff)
	mask16   = uint64(0xffff)
)

func neg16(p Bits) Bits { return Bits((-uint64(p)) & mask16) }

// add16 computes the correctly rounded ⟨16,1⟩ sum on 48-bit integer
// significands (hidden bit at 47). Alignment distances reach at most
// scaleMax−scaleMin = 56, so the shifted-out tail folds into a sticky bit
// exactly as in the generic 128-bit path; for opposite signs the dropped
// tail is borrowed back as one ulp plus a positive sticky.
func add16(a, b Bits) Bits {
	if a == nar16 || b == nar16 {
		return nar16
	}
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	ea, eb := p16dec[uint16(a)], p16dec[uint16(b)]
	xn, xs, xf := ea.neg, int(ea.scale), uint64(ea.frac)
	yn, ys, yf := eb.neg, int(eb.scale), uint64(eb.frac)
	// Ensure |x| ≥ |y| so alignment shifts y only.
	if ys > xs || (ys == xs && yf > xf) {
		xn, yn = yn, xn
		xs, ys = ys, xs
		xf, yf = yf, xf
	}
	sx := xf << 32 // hidden bit at 47
	sy := yf << 32
	d := uint(xs - ys) // ≤ 56
	yv := sy
	var st bool
	if d != 0 {
		yv = sy >> d
		st = sy<<(64-d) != 0
	}
	scale := xs
	var s uint64
	if xn == yn {
		s = sx + yv
		if s >= 1<<48 {
			st = st || s&1 == 1
			s >>= 1
			scale++
		}
	} else {
		// |x| ≥ |y|, so the difference carries x's sign (or is exactly zero,
		// which requires d == 0 and hence no sticky). When alignment dropped
		// bits of y, the true magnitude of y exceeds its truncation by
		// δ ∈ (0,1), so borrow one ulp and flip the tail into a positive
		// sticky; the subsequent normalize shift is then at most 1, keeping
		// the uncertainty strictly below the rounding granularity.
		s = sx - yv
		if st {
			s--
		}
		if s == 0 {
			return 0
		}
		if nz := bits.LeadingZeros64(s) - 16; nz > 0 {
			s <<= uint(nz)
			scale -= nz
		}
	}
	return encode16(xn, scale, s, st)
}

// mul16 computes the correctly rounded ⟨16,1⟩ product. The 16×16-bit
// significand product is exact in 32 bits, so no sticky tracking is needed
// before encoding.
func mul16(a, b Bits) Bits {
	if a == nar16 || b == nar16 {
		return nar16
	}
	if a == 0 || b == 0 {
		return 0
	}
	ea, eb := p16dec[uint16(a)], p16dec[uint16(b)]
	pr := uint64(ea.frac) * uint64(eb.frac) // ∈ [2^30, 2^32)
	scale := int(ea.scale) + int(eb.scale)
	if pr>>31 == 1 {
		scale++
	} else {
		pr <<= 1
	}
	return encode16(ea.neg != eb.neg, scale, pr<<16, false)
}

// encode16 rounds (−1)^neg · 2^(scale−47) · (sig + t) to the nearest
// ⟨16,1⟩ posit, where sig ∈ [2^47, 2^48) and t ∈ [0,1) with sticky ⇔ t>0.
// When the rounding position lies in the fraction field the two candidates
// differ by one unit there, so bit-pattern RNE runs inline on sig; when it
// falls inside the regime/exponent field (|scale| near saturation) the
// generic midpoint comparison decides.
func encode16(neg bool, scale int, sig uint64, sticky bool) Bits {
	var mag Bits
	switch {
	case scale > 28:
		mag = maxPos16
	case scale < -28:
		mag = 1
	default:
		k := scale >> 1
		e := uint64(scale & 1)
		var regLen int
		var regBits uint64
		if k >= 0 {
			regLen = k + 2
			regBits = (uint64(1)<<(k+1) - 1) << 1 // k+1 ones then a zero
		} else {
			regLen = -k + 1
			regBits = 1 // −k zeros then a one
		}
		fb := 14 - regLen // fraction bits in the 15-bit body after regime+exp
		if fb < 0 {
			mag = Config16.encodeMag(scale, sig<<16, sticky)
			break
		}
		body := regBits<<uint(1+fb) | e<<uint(fb) | sig>>uint(47-fb)&(1<<uint(fb)-1)
		g := uint(46 - fb) // guard bit position in sig
		if sig>>g&1 == 1 && (sticky || sig&(1<<g-1) != 0 || body&1 == 1) {
			body++
			if body > uint64(maxPos16) {
				body = uint64(maxPos16) // saturate, never round to NaR
			}
		}
		mag = Bits(body)
	}
	if neg {
		return neg16(mag)
	}
	return mag
}

// Decode32 is the generic decoder with n=32, es=2 folded into constants,
// removing every variable-distance shift from the ⟨32,2⟩ hot path. It
// matches genericDecode bit for bit on all 2^32 patterns (fuzzed in
// fast_test.go). It is Config32.Decode without the configuration switch,
// for callers that already know the type; the contract is Decode's.
func Decode32(p Bits) Decoded {
	// Branch-free: the sign becomes a mask that negates, and the regime's
	// leading bit a mask that picks the run it counts and its k.
	v := uint64(p) << 32
	neg := v >> 63
	v = (v ^ -neg) + neg  // −v when negative
	rest := v << 1        // low 33 bits zero
	ones := -(rest >> 63) // all ones when the regime is a run of ones
	// A run of ones is at most 31 long (the low 33 bits of ^rest are
	// ones); a run of zeros is capped at the pattern's 31 bits.
	run := min(bits.LeadingZeros64(rest^ones), 31)
	k := int(ones&uint64(run-1) | ^ones&uint64(-run)) // run−1 for ones, −run for zeros
	regField := min(run+1, 31)                        // the terminator may not fit
	after := rest << uint(regField)
	return Decoded{
		Neg:        neg == 1,
		Scale:      k<<2 + int(after>>62),
		Frac:       1<<63 | after<<2>>1,
		RegimeBits: regField,
		FracBits:   max(29-regField, 0),
	}
}

const nar32 = Bits(0x8000_0000)

// add32 is ⟨32,2⟩ addition: the generic exact-sum pipeline fed by the
// constant-folded decoder. The arithmetic after decoding is GenericAdd's
// own (addUnpacked + encode), and Decode32 matches genericDecode on all
// 2^32 patterns, so add32 rounds identically to the reference by
// construction (enforced in fast_test.go).
func add32(a, b Bits) Bits {
	if a == nar32 || b == nar32 {
		return nar32
	}
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return Config32.encode(addUnpacked(Decode32(a), Decode32(b)))
}

// mul32 is ⟨32,2⟩ multiplication; see add32.
func mul32(a, b Bits) Bits {
	if a == nar32 || b == nar32 {
		return nar32
	}
	if a == 0 || b == 0 {
		return 0
	}
	return Config32.encode(mulUnpacked(Decode32(a), Decode32(b)))
}

// mulUnpacked computes the exact product of two decoded posits, both
// finite and nonzero, in unrounded form: GenericMul's own post-decode
// arithmetic, as addUnpacked is GenericAdd's.
func mulUnpacked(da, db Decoded) unrounded {
	hi, lo := bits.Mul64(da.Frac, db.Frac)
	scale := da.Scale + db.Scale
	// Product of [2^63,2^64) significands lies in [2^126,2^128).
	if hi>>63 == 1 {
		scale++
	} else {
		hi = hi<<1 | lo>>63
		lo <<= 1
	}
	return unrounded{
		neg:    da.Neg != db.Neg,
		scale:  scale,
		frac:   hi,
		sticky: lo != 0,
	}
}
