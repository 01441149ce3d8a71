package posit

import "math/bits"

// Decoded is the unpacked exact form of a finite nonzero posit:
//
//	value = (−1)^Neg · 2^Scale · (Frac / 2^63)
//
// Frac is the significand normalized so that bit 63 (the hidden bit) is set,
// i.e. Frac/2^63 ∈ [1, 2). Scale is the combined exponent k·2^es + e.
// RegimeBits and FracBits describe the field layout of the encoded pattern
// (they are what taper: large |Scale| ⇒ long regime ⇒ few fraction bits).
type Decoded struct {
	Neg        bool
	Scale      int
	Frac       uint64
	RegimeBits int // regime field length including the terminating bit, if present
	FracBits   int // number of fraction bits available in the pattern
}

// Decode unpacks a finite nonzero posit pattern. It must not be called with
// the zero or NaR patterns; use IsZero/IsNaR first. The standard
// configurations dispatch to the fast paths in fast.go (lookup tables for
// ⟨16,1⟩ and ⟨8,0⟩, a constant-folded decoder for ⟨32,2⟩); every other
// configuration uses the generic field walk.
func (c Config) Decode(p Bits) Decoded {
	switch c {
	case Config16:
		return p16dec[uint16(p)].decoded()
	case Config8:
		return p8dec[uint8(p)].decoded()
	case Config32:
		return Decode32(p)
	}
	return c.genericDecode(p)
}

// GenericDecode is the table-free reference decoder, exported so that
// differential tests and ablation benchmarks can compare the fast paths
// against it (Config16 etc. compare equal to Config{N:16,ES:1}, so calling
// Decode on a freshly built Config still reaches the fast path).
func (c Config) GenericDecode(p Bits) Decoded { return c.genericDecode(p) }

func (c Config) genericDecode(p Bits) Decoded {
	var d Decoded
	// Align the n-bit pattern to the top of a uint64 so that shifts expose
	// fields MSB-first and two's-complement negation works on the full word.
	v := uint64(p) << (64 - c.N)
	if v>>63 == 1 {
		d.Neg = true
		v = -v
	}
	rest := v << 1 // drop sign bit; low 64−n+1 bits are zero
	// Regime: run of identical bits, terminated by the opposite bit or by
	// running out of pattern bits.
	var run int
	var k int
	if rest>>63 == 1 {
		run = bits.LeadingZeros64(^rest)
		if run > int(c.N)-1 {
			run = int(c.N) - 1
		}
		k = run - 1
	} else {
		run = bits.LeadingZeros64(rest)
		if run > int(c.N)-1 {
			run = int(c.N) - 1
		}
		k = -run
	}
	// Field geometry.
	regField := run + 1 // with terminator
	if regField > int(c.N)-1 {
		regField = int(c.N) - 1 // terminator did not fit
	}
	d.RegimeBits = regField
	expAvail := int(c.N) - 1 - regField
	if expAvail > int(c.ES) {
		expAvail = int(c.ES)
	}
	d.FracBits = int(c.N) - 1 - regField - int(c.ES)
	if d.FracBits < 0 {
		d.FracBits = 0
	}
	// Exponent: the next es bits after the regime; if fewer remain they are
	// implicitly zero-extended on the right, which the left-aligned shift
	// provides automatically.
	after := rest << uint(regField)
	var e int
	if c.ES > 0 {
		e = int(after >> (64 - c.ES))
	}
	d.Scale = k<<c.ES + e
	// Fraction with hidden bit at position 63.
	d.Frac = 1<<63 | after<<c.ES>>1
	return d
}

// Scale returns the binary scale (combined exponent) of a finite nonzero
// posit: the power of two such that |value| ∈ [2^scale, 2^(scale+1)).
func (c Config) Scale(p Bits) int { return c.Decode(p).Scale }

// RegimeLen returns the length of the regime field (including the
// terminating bit when present) of a finite nonzero posit pattern.
func (c Config) RegimeLen(p Bits) int { return c.Decode(p).RegimeBits }

// FracBits returns the number of fraction bits available in the pattern of
// a finite nonzero posit — the precision remaining after the regime and
// exponent consume their share. Returns the maximum (n−1−2−es, floored at 0)
// for zero, and 0 for NaR.
func (c Config) FracBits(p Bits) int {
	if p == 0 {
		fb := int(c.N) - 3 - int(c.ES)
		if fb < 0 {
			fb = 0
		}
		return fb
	}
	if c.IsNaR(p) {
		return 0
	}
	return c.Decode(p).FracBits
}
