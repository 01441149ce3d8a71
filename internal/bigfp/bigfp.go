// Package bigfp provides the fixed-precision, correctly rounded real type of
// the shadow oracle: the stand-in for the MPFR library that PositDebug uses
// for its high-precision shadow execution. A Context fixes the mantissa
// precision p (the paper evaluates 128, 256 and 512 bits) and every
// operation rounds once to p bits with round-to-nearest-even, MPFR's
// default.
//
// A Float keeps its mantissa in ⌈p/64⌉ machine words, allocated on its first
// write and reused after. Add, Sub, Mul, Div, the sign operations,
// comparison and the float64 and int64 conversions compute on those words.
// Sqrt, FMA and operations on infinities convert their operands exactly to
// math/big.Float, compute there and convert back. Every result equals
// math/big.Float's at precision p under ToNearestEven, down to its signed
// zeros, its int32 exponent range (past which results become ±Inf or ±0)
// and its ErrNaN panics.
package bigfp

import (
	"math"
	"math/big"
	"math/bits"
)

// Form classifies a Float.
type Form uint8

// A Float is zero, finite and nonzero, or infinite.
const (
	Zero Form = iota
	Finite
	Inf
)

// Float is a value of a Context: ±0.mant × 2^exp, where the mantissa's
// words are little-endian and its top bit is set when the value is Finite.
// The zero value is +0. Copy a Float with Context.Set, never by assignment:
// an assigned copy would share the mantissa words.
type Float struct {
	mant []uint64
	exp  int32
	form Form
	neg  bool
}

// Context carries the precision and the scratch of its operations. A
// Context serves one goroutine at a time.
type Context struct {
	prec uint
	n    int    // mantissa words, ⌈prec/64⌉
	lsb  uint64 // the last kept bit's weight in a mantissa's lowest word
	buf  []uint64

	// The math/big bridge of Sqrt, FMA, infinities and Big/SetBig.
	bx, by, bz, bt big.Float
	bi             big.Int
	bw             []big.Word
}

// New returns a context with the given mantissa precision in bits.
// PositDebug's default is 256.
func New(prec uint) *Context {
	if prec == 0 {
		prec = 256
	}
	n := int((prec + 63) / 64)
	return &Context{prec: prec, n: n, lsb: 1 << (uint(64*n) - prec), buf: make([]uint64, 4*n+5)}
}

// Prec returns the mantissa precision of the context.
func (c *Context) Prec() uint { return c.prec }

// words returns z's mantissa resized to n words, reusing its storage.
func (z *Float) words(n int) []uint64 {
	if cap(z.mant) < n {
		z.mant = make([]uint64, n)
	}
	z.mant = z.mant[:n]
	return z.mant
}

// frame returns the context's scratch resized to k words.
func (c *Context) frame(k int) []uint64 {
	if cap(c.buf) < k {
		c.buf = make([]uint64, k)
	}
	return c.buf[:k]
}

// SetFloat64 sets z to f, exactly at any precision of 53 bits or more. It
// panics with big.ErrNaN for NaN, as math/big does.
func (c *Context) SetFloat64(z *Float, f float64) {
	switch {
	case f != f:
		new(big.Float).SetFloat64(f) // panics with math/big's ErrNaN
	case f == 0:
		z.form, z.neg = Zero, math.Signbit(f)
	case math.IsInf(f, 0):
		z.form, z.neg = Inf, f < 0
	default:
		fm, e := math.Frexp(f)
		w := [1]uint64{1<<63 | math.Float64bits(fm)<<11}
		c.round(z, w[:], int64(e), false, f < 0)
	}
}

// SetInt64 sets z to v, exactly at any precision of 64 bits or more.
func (c *Context) SetInt64(z *Float, v int64) {
	if v == 0 {
		z.form, z.neg = Zero, false
		return
	}
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	s := bits.LeadingZeros64(u)
	w := [1]uint64{u << s}
	c.round(z, w[:], int64(64-s), false, v < 0)
}

// Set sets z to x rounded to the context precision (exactly, when x was
// computed at it).
func (c *Context) Set(z, x *Float) {
	if x.form != Finite {
		z.form, z.neg = x.form, x.neg
		return
	}
	if len(x.mant) == c.n && x.mant[0]&(c.lsb-1) == 0 {
		move(z.words(c.n), x.mant)
		z.form, z.neg, z.exp = Finite, x.neg, x.exp
		return
	}
	m := c.frame(len(x.mant))
	copy(m, x.mant)
	c.round(z, m, int64(x.exp), false, x.neg)
}

// Neg sets z = −x (Neg of +0 is −0).
func (c *Context) Neg(z, x *Float) {
	neg := !x.neg
	c.Set(z, x)
	z.neg = neg
}

// Abs sets z = |x|.
func (c *Context) Abs(z, x *Float) {
	c.Set(z, x)
	z.neg = false
}

// Add sets z = x + y rounded to the context precision.
func (c *Context) Add(z, x, y *Float) { c.add(z, x, y, y.neg, false) }

// Sub sets z = x − y rounded to the context precision.
func (c *Context) Sub(z, x, y *Float) { c.add(z, x, y, !y.neg, true) }

// add sets z = x + |y| when yneg is false and x − |y| otherwise.
func (c *Context) add(z, x, y *Float, yneg, sub bool) {
	switch {
	case x.form == Finite && y.form == Finite:
		if x.neg == yneg {
			c.uadd(z, x, y, yneg)
			return
		}
		switch ucmp(x, y) {
		case 1:
			c.usub(z, x, y, x.neg)
		case -1:
			c.usub(z, y, x, yneg)
		default:
			z.form, z.neg = Zero, false // x − x = +0
		}
	case x.form == Inf || y.form == Inf:
		// math/big panics on Inf − Inf.
		if sub {
			c.bigBinary(z, x, y, (*big.Float).Sub)
		} else {
			c.bigBinary(z, x, y, (*big.Float).Add)
		}
	case y.form == Zero:
		if x.form == Zero {
			z.form, z.neg = Zero, x.neg && yneg
			return
		}
		c.Set(z, x)
	default: // 0 ± y
		c.Set(z, y)
		z.neg = yneg
	}
}

// Mul sets z = x · y rounded to the context precision.
func (c *Context) Mul(z, x, y *Float) {
	neg := x.neg != y.neg
	switch {
	case x.form == Finite && y.form == Finite:
		c.umul(z, x, y, neg)
	case x.form == Inf || y.form == Inf:
		c.bigBinary(z, x, y, (*big.Float).Mul) // math/big panics on 0 × Inf
	default:
		z.form, z.neg = Zero, neg
	}
}

// Div sets z = x / y rounded to the context precision. Division by zero is
// undefined: it returns true and sets z to +0.
func (c *Context) Div(z, x, y *Float) (undefined bool) {
	switch {
	case y.form == Zero:
		z.form, z.neg = Zero, false
		return true
	case x.form == Finite && y.form == Finite:
		c.udiv(z, x, y, x.neg != y.neg)
	case x.form == Zero && y.form == Finite:
		z.form, z.neg = Zero, x.neg != y.neg
	default:
		c.bigBinary(z, x, y, (*big.Float).Quo) // math/big panics on Inf / Inf
	}
	return false
}

// Sqrt sets z = √x rounded to the context precision. The root of a negative
// x is undefined: it returns true and sets z to +0.
func (c *Context) Sqrt(z, x *Float) (undefined bool) {
	if x.Sign() < 0 {
		z.form, z.neg = Zero, false
		return true
	}
	c.fromBig(z, c.bz.SetPrec(c.prec).SetMode(big.ToNearestEven).Sqrt(c.Big(&c.bx, x)))
	return false
}

// FMA sets z = a·b + x with one rounding to the context precision.
func (c *Context) FMA(z, a, b, x *Float) {
	c.bz.SetPrec(2*c.prec).SetMode(big.ToNearestEven).Mul(c.Big(&c.bx, a), c.Big(&c.by, b))
	c.fromBig(z, c.by.SetPrec(c.prec).SetMode(big.ToNearestEven).Add(&c.bz, c.Big(&c.bx, x)))
}

// SetBig sets z to x rounded to the context precision.
func (c *Context) SetBig(z *Float, x *big.Float) {
	c.fromBig(z, c.bz.SetPrec(c.prec).SetMode(big.ToNearestEven).Set(x))
}

// Sign returns −1, 0 or +1 as x is negative, zero or positive.
func (x *Float) Sign() int {
	switch {
	case x.form == Zero:
		return 0
	case x.neg:
		return -1
	}
	return 1
}

// Cmp compares x and y, returning −1, 0 or +1; −0 equals +0.
func (x *Float) Cmp(y *Float) int {
	mx, my := x.ord(), y.ord()
	switch {
	case mx < my:
		return -1
	case mx > my:
		return 1
	case mx == -1:
		return ucmp(y, x)
	case mx == 1:
		return ucmp(x, y)
	}
	return 0
}

// ord is −2, −1, 0, +1 or +2 as x is −Inf, negative, zero, positive or +Inf.
func (x *Float) ord() int {
	m := int(x.form) // Zero 0, Finite 1, Inf 2
	if x.neg {
		m = -m
	}
	return m
}

// ucmp compares the magnitudes of finite x and y.
func ucmp(x, y *Float) int {
	if x.exp != y.exp {
		if x.exp < y.exp {
			return -1
		}
		return 1
	}
	for i, j := len(x.mant), len(y.mant); i > 0 || j > 0; {
		var xm, ym uint64
		if i > 0 {
			i--
			xm = x.mant[i]
		}
		if j > 0 {
			j--
			ym = y.mant[j]
		}
		if xm != ym {
			if xm < ym {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Float64 returns x rounded to the nearest float64, ties to even, through
// the subnormal range and to ±Inf past the largest finite float64.
func (x *Float) Float64() float64 {
	var f float64
	switch x.form {
	case Finite:
		f = x.abs64()
	case Inf:
		f = math.Inf(1)
	}
	if x.neg {
		f = math.Copysign(f, -1)
	}
	return f
}

// abs64 rounds |x|, finite, to float64.
func (x *Float) abs64() float64 {
	n := len(x.mant)
	top := x.mant[n-1]
	if x.exp == big.MinExp {
		// math/big computes x.exp−1 in int32, which wraps here: the value
		// reads as overflowing, unless rounding it to 53 bits carries into
		// the next exponent, which reads as a subnormal shifted out to 0.
		if top>>10 == 1<<54-1 {
			return 0
		}
		return math.Inf(1)
	}
	e := int64(x.exp) - 1 // |x| ∈ [2^e, 2^(e+1))
	switch {
	case e > 1023:
		return math.Inf(1)
	case e < -1075: // below half the smallest subnormal
		return 0
	case e == -1075: // half the smallest subnormal or more: the tie goes to 0
		if top == 1<<63 && !nonzero(x.mant[:n-1]) {
			return 0
		}
		return math.SmallestNonzeroFloat64
	}
	p := 53 // kept bits
	if e < -1022 {
		p = int(1075 + e)
	}
	m := top >> (64 - p)
	if top>>(63-p)&1 != 0 && (m&1 != 0 || top&(1<<(63-p)-1) != 0 || nonzero(x.mant[:n-1])) {
		m++
	}
	if p < 53 {
		// A subnormal in units of 2^−1074; rounding up to 2^52 gives the
		// smallest normal's bits.
		return math.Float64frombits(m)
	}
	if m == 1<<53 {
		m >>= 1
		if e++; e > 1023 {
			return math.Inf(1)
		}
	}
	return math.Float64frombits(uint64(e+1023)<<52 | m&(1<<52-1))
}

// Int64 returns x truncated toward zero, saturating at the int64 range.
func (x *Float) Int64() int64 {
	switch {
	case x.form == Zero || x.form == Finite && x.exp <= 0:
		return 0
	case x.form == Finite && x.exp <= 63:
		i := int64(x.mant[len(x.mant)-1] >> (64 - uint(x.exp)))
		if x.neg {
			i = -i
		}
		return i
	case x.neg:
		return math.MinInt64
	}
	return math.MaxInt64
}

// Parts returns x's form, sign, exponent and, when x is Finite, its
// mantissa words: x = ±0.mant × 2^exp. The words alias x's.
func (x *Float) Parts() (form Form, neg bool, exp int32, mant []uint64) {
	if x.form == Finite {
		mant = x.mant
	}
	return x.form, x.neg, x.exp, mant
}

// SetParts sets z to the value Parts described, copying mant.
func (z *Float) SetParts(form Form, neg bool, exp int32, mant []uint64) {
	z.form, z.neg, z.exp = form, neg, exp
	if form == Finite {
		copy(z.words(len(mant)), mant)
	}
}

// uadd sets z = ±(|x| + |y|) for finite x and y, neg giving the sign.
func (c *Context) uadd(z, x, y *Float, neg bool) {
	if x.exp < y.exp {
		x, y = y, x
	}
	m := c.place(x, y)
	sticky, carry := addShifted(m, y.mant, uint64(int64(x.exp)-int64(y.exp)))
	exp := int64(x.exp)
	if carry != 0 {
		sticky = sticky || m[0]&1 != 0
		for i := 0; i < len(m)-1; i++ {
			m[i] = m[i]>>1 | m[i+1]<<63
		}
		m[len(m)-1] = m[len(m)-1]>>1 | 1<<63
		exp++
	}
	c.round(z, m, exp, sticky, neg)
}

// usub sets z = ±(|x| − |y|) for finite x and y with |x| > |y|.
func (c *Context) usub(z, x, y *Float, neg bool) {
	m := c.place(x, y)
	sticky := subShifted(m, y.mant, uint64(int64(x.exp)-int64(y.exp)))
	i := len(m) - 1
	for m[i] == 0 {
		i--
	}
	lz := (len(m)-1-i)*64 + bits.LeadingZeros64(m[i])
	if lz > 0 {
		shl(m, lz)
	}
	c.round(z, m, int64(x.exp)-int64(lz), sticky, neg)
}

// place returns the frame of a sum: x's mantissa at its top, above at
// least one guard word below the precision and every word of y.
func (c *Context) place(x, y *Float) []uint64 {
	kx := len(x.mant)
	k := max(kx, len(y.mant), c.n) + 1
	m := c.frame(k)
	clear(m[:k-kx])
	move(m[k-kx:], x.mant)
	return m
}

// addShifted adds y, aligned with m's top and shifted right by d bits, to m.
// It returns the carry out of m and whether bits of y fell below m.
func addShifted(m, y []uint64, d uint64) (sticky bool, carry uint64) {
	j0, s := shiftBase(m, y, d)
	for t := range m {
		m[t], carry = bits.Add64(m[t], wordAt(y, j0+t)>>s|wordAt(y, j0+t+1)<<(64-s), carry)
	}
	return stickyBelow(y, j0, s), carry
}

// subShifted is addShifted's subtraction: m becomes the floor of
// m − y·2^−d in m's units, and sticky says whether that dropped a fraction.
func subShifted(m, y []uint64, d uint64) (sticky bool) {
	j0, s := shiftBase(m, y, d)
	sticky = stickyBelow(y, j0, s)
	var borrow uint64
	if sticky {
		borrow = 1
	}
	for t := range m {
		m[t], borrow = bits.Sub64(m[t], wordAt(y, j0+t)>>s|wordAt(y, j0+t+1)<<(64-s), borrow)
	}
	return sticky
}

// shiftBase returns, for y aligned with m's top and shifted right by d
// bits, the index into y of the word whose high part lands in m's word 0,
// and the bit shift. d is under 2^33, the widest int32 exponent gap.
func shiftBase(m, y []uint64, d uint64) (j0 int, s uint) {
	return int(d/64) - (len(m) - len(y)), uint(d % 64)
}

// stickyBelow reports whether y, shifted as shiftBase says, has set bits
// below the frame.
func stickyBelow(y []uint64, j0 int, s uint) bool {
	return nonzero(y[:min(max(j0, 0), len(y))]) || wordAt(y, j0)&(1<<s-1) != 0
}

func wordAt(y []uint64, j int) uint64 {
	if uint(j) < uint(len(y)) {
		return y[j]
	}
	return 0
}

func nonzero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// shl shifts m left by n < 64·len(m) bits in place.
func shl(m []uint64, n int) {
	if q := n / 64; q > 0 {
		copy(m[q:], m[:len(m)-q])
		clear(m[:q])
	}
	if s := uint(n % 64); s > 0 {
		for i := len(m) - 1; i > 0; i-- {
			m[i] = m[i]<<s | m[i-1]>>(64-s)
		}
		m[0] <<= s
	}
}

// umul sets z = ±|x|·|y| for finite x and y.
func (c *Context) umul(z, x, y *Float, neg bool) {
	// Words below the lowest nonzero one add nothing to the product.
	xs, ys := trim(x.mant), trim(y.mant)
	m := c.frame(len(xs) + len(ys))
	for i, xi := range xs {
		row := m[i:][:len(ys)+1]
		var carry uint64
		if i == 0 { // the first row writes, the others accumulate
			for j, yj := range ys {
				hi, lo := bits.Mul64(xi, yj)
				var cc uint64
				row[j], cc = bits.Add64(lo, carry, 0)
				carry = hi + cc
			}
		} else {
			for j, yj := range ys {
				hi, lo := bits.Mul64(xi, yj)
				var cc uint64
				lo, cc = bits.Add64(lo, row[j], 0)
				hi += cc
				lo, cc = bits.Add64(lo, carry, 0)
				row[j], carry = lo, hi+cc
			}
		}
		row[len(ys)] = carry
	}
	exp := int64(x.exp) + int64(y.exp)
	if m[len(m)-1]>>63 == 0 {
		// Normalize the words round keeps and the one below them. The
		// lower words only feed the sticky bit, which needs no shift.
		shl(m[max(len(m)-c.n-1, 0):], 1)
		exp--
	}
	c.round(z, m, exp, false, neg)
}

// move copies src to dst, which must not be shorter. It is copy without
// a runtime call, for the few words a mantissa has.
func move(dst, src []uint64) {
	for i, w := range src {
		dst[i] = w
	}
}

// trim returns m without its zero words below the lowest nonzero one.
func trim(m []uint64) []uint64 {
	i := 0
	for m[i] == 0 {
		i++
	}
	return m[i:]
}

// udiv sets z = ±|x|/|y| for finite x and y.
func (c *Context) udiv(z, x, y *Float, neg bool) {
	// Words below the divisor's lowest nonzero one only scale the quotient.
	v := trim(y.mant)
	nx, nv := max(len(x.mant), c.n), len(v)
	// u = X·2^(64(nx+nv+1−len(X))) under a zero word, and q = ⌊u/v⌋ in
	// nx+2 words; then |x/y| = 0.q × 2^(64+x.exp−y.exp).
	w := c.frame(2*nx + 2*nv + 5)
	u, q, t := w[:nx+nv+2], w[nx+nv+2:2*nx+nv+4], w[2*nx+nv+4:]
	clear(u)
	copy(u[nx+nv+1-len(x.mant):], x.mant)
	if nv == 1 {
		var r uint64
		for j := len(q) - 1; j >= 0; j-- {
			q[j], r = bits.Div64(r, u[j], v[0])
		}
		u[0] = r
	} else {
		divKnuth(q, u, v, t)
	}
	lz := bits.LeadingZeros64(q[len(q)-1])
	if lz == 64 {
		lz += bits.LeadingZeros64(q[len(q)-2])
	}
	shl(q, lz)
	c.round(z, q, 64+int64(x.exp)-int64(y.exp)-int64(lz), nonzero(u[:nv]), neg)
}

// divKnuth sets q = ⌊u/v⌋ and leaves the remainder in u[:len(v)], by
// Knuth's algorithm D (TAOCP vol. 2, 4.3.1), as math/big's divBasic does.
// v has two words or more and its top bit set, u's top word is zero, q has
// len(u)−len(v) words and t len(v)+1.
func divKnuth(q, u, v, t []uint64) {
	n := len(v)
	vn1, vn2 := v[n-1], v[n-2]
	for j := len(u) - n - 1; j >= 0; j-- {
		// Guess q̂ from the top two words of u by the top word of v,
		// then refine it by the next words to at most one too large.
		qhat := ^uint64(0)
		if ujn := u[j+n]; ujn != vn1 {
			var rhat uint64
			qhat, rhat = bits.Div64(ujn, u[j+n-1], vn1)
			x1, x2 := bits.Mul64(qhat, vn2)
			for x1 > rhat || x1 == rhat && x2 > u[j+n-2] {
				qhat--
				prev := rhat
				if rhat += vn1; rhat < prev {
					break
				}
				x1, x2 = bits.Mul64(qhat, vn2)
			}
		}
		// u[j:j+n+1] −= q̂·v, adding v back if that went negative.
		var carry, borrow uint64
		for i, vi := range v {
			hi, lo := bits.Mul64(qhat, vi)
			var cc uint64
			lo, cc = bits.Add64(lo, carry, 0)
			t[i], carry = lo, hi+cc
		}
		t[n] = carry
		uj := u[j : j+n+1]
		for i := range uj {
			uj[i], borrow = bits.Sub64(uj[i], t[i], borrow)
		}
		if borrow != 0 {
			qhat--
			var c uint64
			for i, vi := range v {
				uj[i], c = bits.Add64(uj[i], vi, c)
			}
			uj[n] += c
		}
		q[j] = qhat
	}
}

// round sets z = ±0.m × 2^exp rounded to the context precision, nearest
// even, where m is normalized (top bit set) and sticky says whether a
// nonzero tail lies below m, which needs len(m) > the context's words. As
// math/big does, an exponent past the int32 range gives ±Inf or ±0 before
// rounding, and a rounding carry out of the largest exponent gives ±Inf.
func (c *Context) round(z *Float, m []uint64, exp int64, sticky, neg bool) {
	z.neg = neg
	if exp < big.MinExp {
		z.form = Zero
		return
	}
	if exp > big.MaxExp {
		z.form = Inf
		return
	}
	n, k := c.n, len(m)
	zm := z.words(n)
	z.form, z.exp = Finite, int32(exp)
	if k < n {
		copy(zm[n-k:], m)
		clear(zm[:n-k])
		return
	}
	lo := k - n // m[lo:] are the kept words
	move(zm, m[lo:])
	var up bool
	if half := c.lsb >> 1; half != 0 { // the round bit is in the kept words' lowest
		up = zm[0]&half != 0 && (zm[0]&c.lsb != 0 || sticky || zm[0]&(half-1) != 0 || nonzero(m[:lo]))
		zm[0] &^= c.lsb - 1
	} else if lo > 0 { // it is the top bit of the word below
		r := m[lo-1]
		up = r>>63 != 0 && (zm[0]&1 != 0 || sticky || r<<1 != 0 || nonzero(m[:lo-1]))
	}
	if up {
		carry := uint64(0)
		zm[0], carry = bits.Add64(zm[0], c.lsb, 0)
		for i := 1; carry != 0 && i < n; i++ {
			zm[i], carry = bits.Add64(zm[i], 0, carry)
		}
		if carry != 0 {
			if exp >= big.MaxExp {
				z.form = Inf
				return
			}
			z.exp++
			zm[n-1] = 1 << 63
		}
	}
}

// bigBinary sets z = op(x, y) computed by math/big at the context
// precision.
func (c *Context) bigBinary(z, x, y *Float, op func(z, x, y *big.Float) *big.Float) {
	c.fromBig(z, op(c.bz.SetPrec(c.prec).SetMode(big.ToNearestEven), c.Big(&c.bx, x), c.Big(&c.by, y)))
}

// Big sets b to x exactly and returns b.
func (c *Context) Big(b *big.Float, x *Float) *big.Float {
	switch x.form {
	case Zero:
		b.SetInt64(0)
		if x.neg {
			b.Neg(b)
		}
	case Inf:
		b.SetInf(x.neg)
	default:
		c.bw = c.bw[:0]
		for _, w := range x.mant {
			for i := 0; i < 64/bits.UintSize; i++ {
				c.bw = append(c.bw, big.Word(w>>(i*bits.UintSize)))
			}
		}
		n := len(x.mant)
		b.SetPrec(uint(64 * n)).SetInt(c.bi.SetBits(c.bw))
		b.SetMantExp(b, int(x.exp)-64*n)
		if x.neg {
			b.Neg(b)
		}
	}
	return b
}

// fromBig sets z to b, which must be exact at the context precision.
func (c *Context) fromBig(z *Float, b *big.Float) {
	z.neg = b.Signbit()
	switch {
	case b.IsInf():
		z.form = Inf
	case b.Sign() == 0:
		z.form = Zero
	default:
		n := c.n
		e := b.MantExp(&c.bt) // bt = b·2^−e, at b's precision
		// The mantissa as an integer of exactly 64n bits.
		c.bt.SetMantExp(&c.bt, 64*n).Int(&c.bi)
		ws := c.bi.Bits()
		zm := z.words(n)
		const per = 64 / bits.UintSize
		for i := range zm {
			var w uint64
			for j := 0; j < per; j++ {
				w |= uint64(ws[i*per+j]) << (j * bits.UintSize)
			}
			zm[i] = w
		}
		z.form, z.exp = Finite, int32(e)
	}
}
