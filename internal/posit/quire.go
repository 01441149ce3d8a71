package posit

import "math/bits"

// Quire is the exact fixed-point accumulator mandated by the posit standard
// for fused operations. It holds 16·n bits of two's-complement fixed point
// whose least significant bit weighs minpos² = 2^(2·ScaleMin), which is
// enough to represent any sum of posit products — including
// maxpos² + minpos² — without rounding. Rounding happens exactly once, when
// the accumulated value is converted back to a posit with Posit().
//
// A Quire is created with NewQuire and is not safe for concurrent use.
type Quire struct {
	cfg Config
	w   []uint64 // little-endian words, two's complement
	nar bool
}

// NewQuire returns a cleared quire for the configuration. The standard's
// 16n bits suffice for es ≤ 2 (maxpos² spans 4·scaleMax+1 ≤ 16n−31 bits);
// for the nonstandard es ≥ 3 configurations this package also supports,
// the quire widens so that maxpos² plus carry headroom still fits exactly.
func NewQuire(cfg Config) *Quire {
	bits := 16 * cfg.N
	if need := uint(4*cfg.ScaleMax()) + 64; need > bits {
		bits = need
	}
	words := (bits + 63) / 64
	return &Quire{cfg: cfg, w: make([]uint64, words)}
}

// Clone returns an independent copy of the quire.
func (q *Quire) Clone() *Quire {
	return &Quire{cfg: q.cfg, w: append([]uint64(nil), q.w...), nar: q.nar}
}

// Clear resets the quire to zero.
func (q *Quire) Clear() {
	for i := range q.w {
		q.w[i] = 0
	}
	q.nar = false
}

// IsNaR reports whether the quire has absorbed a NaR operand or overflowed.
func (q *Quire) IsNaR() bool { return q.nar }

// Add accumulates the posit p exactly: q += p.
func (q *Quire) Add(p Bits) { q.addPosit(p, false) }

// Sub subtracts the posit p exactly: q −= p.
func (q *Quire) Sub(p Bits) { q.addPosit(p, true) }

func (q *Quire) addPosit(p Bits, negate bool) {
	if q.cfg.IsNaR(p) {
		q.nar = true
	}
	if q.nar || p == 0 {
		return
	}
	d := q.cfg.Decode(p)
	shift := d.Scale - 63 - 2*q.cfg.ScaleMin()
	q.addShifted(0, d.Frac, shift, d.Neg != negate)
}

// AddProduct accumulates the exact product a·b: q += a·b (fused
// multiply-add into the quire; the product is never rounded).
func (q *Quire) AddProduct(a, b Bits) { q.addProduct(a, b, false) }

// SubProduct computes q −= a·b exactly.
func (q *Quire) SubProduct(a, b Bits) { q.addProduct(a, b, true) }

func (q *Quire) addProduct(a, b Bits, negate bool) {
	if q.cfg.IsNaR(a) || q.cfg.IsNaR(b) {
		q.nar = true
	}
	if q.nar || a == 0 || b == 0 {
		return
	}
	da, db := q.cfg.Decode(a), q.cfg.Decode(b)
	hi, lo := bits.Mul64(da.Frac, db.Frac)
	shift := da.Scale + db.Scale - 126 - 2*q.cfg.ScaleMin()
	q.addShifted(hi, lo, shift, da.Neg != db.Neg != negate)
}

// addShifted adds (hi·2^64 + lo)·2^shift, negated when neg, into the quire.
// Negative shifts only ever drop zero bits: every posit's ULP is at least
// minpos-scaled, so products align at or above the quire's LSB.
func (q *Quire) addShifted(hi, lo uint64, shift int, neg bool) {
	if shift < 0 {
		s := uint(-shift)
		if s >= 64 {
			lo = hi >> (s - 64)
			hi = 0
		} else {
			lo = lo>>s | hi<<(64-s)
			hi >>= s
		}
		shift = 0
	}
	word, bit := shift/64, uint(shift%64)
	var v [3]uint64
	v[0] = lo << bit
	if bit == 0 {
		v[1] = hi
	} else {
		v[1] = hi<<bit | lo>>(64-bit)
		v[2] = hi >> (64 - bit)
	}
	topBefore := q.w[len(q.w)-1] >> 63
	if neg {
		var borrow uint64
		for i := 0; i < len(q.w)-word; i++ {
			var sub uint64
			if i < 3 {
				sub = v[i]
			}
			q.w[word+i], borrow = bits.Sub64(q.w[word+i], sub, borrow)
		}
	} else {
		var carry uint64
		for i := 0; i < len(q.w)-word; i++ {
			var add uint64
			if i < 3 {
				add = v[i]
			}
			q.w[word+i], carry = bits.Add64(q.w[word+i], add, carry)
		}
	}
	// Signed overflow check: adding a positive value must not turn a
	// non-negative quire negative, and vice versa. With the format's
	// guard bits this needs ≳2^(2n) accumulations to trigger.
	topAfter := q.w[len(q.w)-1] >> 63
	if topBefore != topAfter {
		// A sign change is legitimate when the magnitude crossed zero;
		// distinguish by the sign of the addend vs the transition.
		if (neg && topBefore == 1 && topAfter == 0) || (!neg && topBefore == 0 && topAfter == 1) {
			q.nar = true
		}
	}
}

// Sign returns −1, 0 or +1 for the accumulated value.
func (q *Quire) Sign() int {
	if q.w[len(q.w)-1]>>63 == 1 {
		return -1
	}
	for _, w := range q.w {
		if w != 0 {
			return 1
		}
	}
	return 0
}

// Posit rounds the accumulated value to the nearest posit — the single
// rounding step of a fused operation.
func (q *Quire) Posit() Bits {
	if q.nar {
		return q.cfg.NaR()
	}
	neg := q.w[len(q.w)-1]>>63 == 1
	mag := make([]uint64, len(q.w))
	copy(mag, q.w)
	if neg {
		var carry uint64 = 1
		for i := range mag {
			mag[i], carry = bits.Add64(^mag[i], 0, carry)
		}
	}
	// Locate the most significant set bit.
	top := -1
	for i := len(mag) - 1; i >= 0; i-- {
		if mag[i] != 0 {
			top = i*64 + 63 - bits.LeadingZeros64(mag[i])
			break
		}
	}
	if top < 0 {
		return 0
	}
	scale := 2*q.cfg.ScaleMin() + top
	// Extract the top 64 bits starting at `top` as the significand.
	frac, sticky := extractBits(mag, top)
	return q.cfg.encode(unrounded{neg: neg, scale: scale, frac: frac, sticky: sticky})
}

// extractBits returns the 64 bits of mag starting at bit index top
// (inclusive, counting from 0 = LSB) left-aligned into a uint64, plus
// whether any lower bit is set.
func extractBits(mag []uint64, top int) (frac uint64, sticky bool) {
	lowBit := top - 63
	for i := 0; i < 64; i++ {
		idx := top - i
		if idx < 0 {
			break
		}
		if mag[idx/64]>>(uint(idx)%64)&1 == 1 {
			frac |= 1 << (63 - i)
		}
	}
	for idx := 0; idx < lowBit; idx++ {
		if mag[idx/64]>>(uint(idx)%64)&1 == 1 {
			return frac, true
		}
	}
	return frac, false
}
