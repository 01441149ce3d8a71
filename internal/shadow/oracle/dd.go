package oracle

import (
	"math"
	"math/big"
	"strconv"

	"positdebug/internal/ulp"
)

// ddPrecision is the worst-case significand width a normalized
// double-double pair is guaranteed to carry (2×53 with the binding bit
// between the halves).
const ddPrecision = 106

// ddOracle shadows in double-double arithmetic: each Value holds an
// unevaluated sum Hi+Lo of two float64s with |Lo| ≤ ulp(Hi)/2 (normalized),
// giving ~106 significand bits from plain float64 hardware ops — no big.Int
// mantissas, no allocation, no rounding-mode plumbing. The kernels are the
// classical error-free transformations (Knuth two-sum, FMA two-product)
// composed the way QD/crlibm do.
//
// Divergence from bigfp comes in two flavors. Exponent range: double-
// double inherits float64's overflow/underflow, so values beyond ~1e308
// collapse to ±Inf where bigfp would keep going — posit programs saturate
// at maxpos (~1.3e36 for ⟨32,2⟩) long before that, so this one is
// unobservable on the detection suite. Significand width: an adversarial
// recurrence that amplifies the shadow's own rounding error (Muller's
// recurrence gains ~2^4.3 per iteration) eventually drags a 106-bit
// shadow to the same wrong attractor as the program, shrinking the
// measured output error where bigfp-256 keeps tracking the true orbit.
// The per-op detectors (cancellation, high-error) fire long before the
// collapse, so flagged/clean verdicts survive — the cross-oracle
// differential suite (oracle_diff_test.go) pins exactly this contract.
type ddOracle struct {
	// scratch bigs for the quire bridge (Big/SetBig) so quire-carrying
	// programs stay allocation-free on the warm path.
	bs1, bs2 big.Float
}

// twoSum returns s = fl(a+b) and the exact error e with a+b = s+e
// (Knuth's branch-free version, valid for any ordering of |a|, |b|).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// quickTwoSum is twoSum under the precondition |a| ≥ |b| (or a == 0).
func quickTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// twoProd returns p = fl(a·b) and the exact error e with a·b = p+e,
// using the hardware FMA.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// ddAdd computes (ah,al) + (bh,bl) with the full-accuracy (Knuth/QD
// "ieee_add") algorithm: both error terms are recovered before the final
// renormalization, keeping the result within 1 ulp of the exact sum.
func ddAdd(ah, al, bh, bl float64) (float64, float64) {
	sh, se := twoSum(ah, bh)
	tl, te := twoSum(al, bl)
	se += tl
	sh, se = quickTwoSum(sh, se)
	se += te
	return quickTwoSum(sh, se)
}

// ddMul computes (ah,al) × (bh,bl); the al·bl term is below the result's
// 106-bit window and is dropped, as in QD.
func ddMul(ah, al, bh, bl float64) (float64, float64) {
	ph, pl := twoProd(ah, bh)
	pl += ah*bl + al*bh
	return quickTwoSum(ph, pl)
}

// ddMulF computes (ah,al) × b for a plain float64 b.
func ddMulF(ah, al, b float64) (float64, float64) {
	ph, pl := twoProd(ah, b)
	pl += al * b
	return quickTwoSum(ph, pl)
}

func (o *ddOracle) Kind() Kind        { return DD }
func (o *ddOracle) Precision() uint   { return ddPrecision }
func (o *ddOracle) EntryBytes() int64 { return 16 }

func (o *ddOracle) SetFloat64(z *Value, f float64) { z.Hi, z.Lo = f, 0 }

func (o *ddOracle) SetInt64(z *Value, v int64) {
	hi := float64(v)
	var lo float64
	// Recover the rounding error of the int64→float64 conversion when hi
	// is safely convertible back. The excluded sliver (|v| within 512 of
	// MaxInt64, where hi rounds to 2^63) loses ≤ 2^-54 relative — and the
	// runtime only reaches here for program int64 temps, which are tiny.
	if hi >= -9.2233720368547748e18 && hi <= 9.2233720368547748e18 {
		lo = float64(v - int64(hi))
	}
	z.Hi, z.Lo = hi, lo
}

func (o *ddOracle) Copy(z, x *Value) { z.Hi, z.Lo = x.Hi, x.Lo }

func (o *ddOracle) Add(z, x, y *Value) {
	z.Hi, z.Lo = ddAdd(x.Hi, x.Lo, y.Hi, y.Lo)
}

func (o *ddOracle) Sub(z, x, y *Value) {
	z.Hi, z.Lo = ddAdd(x.Hi, x.Lo, -y.Hi, -y.Lo)
}

func (o *ddOracle) Mul(z, x, y *Value) {
	z.Hi, z.Lo = ddMul(x.Hi, x.Lo, y.Hi, y.Lo)
}

// Div refines q1 = x.Hi/y.Hi with two exact-residual correction steps —
// the long-division scheme from QD, accurate to the last dd bit. A
// normalized pair is zero iff Hi is zero, so the undefined guard mirrors
// bigfp's y.Sign()==0 check.
func (o *ddOracle) Div(z, x, y *Value) bool {
	if y.Hi == 0 {
		z.Hi, z.Lo = 0, 0
		return true
	}
	q1 := x.Hi / y.Hi
	ph, pl := ddMulF(y.Hi, y.Lo, q1)
	rh, rl := ddAdd(x.Hi, x.Lo, -ph, -pl)
	q2 := rh / y.Hi
	ph, pl = ddMulF(y.Hi, y.Lo, q2)
	rh, rl = ddAdd(rh, rl, -ph, -pl)
	q3 := rh / y.Hi
	q1, q2 = quickTwoSum(q1, q2)
	z.Hi, z.Lo = ddAdd(q1, q2, q3, 0)
	return false
}

// Sqrt takes the hardware root and applies one Newton correction in dd:
// s + (x − s²)/(2s), which doubles the 53 correct bits to the full window.
func (o *ddOracle) Sqrt(z, x *Value) bool {
	if x.Hi < 0 {
		z.Hi, z.Lo = 0, 0
		return true
	}
	if x.Hi == 0 {
		z.Hi, z.Lo = 0, 0
		return false
	}
	s := math.Sqrt(x.Hi)
	ph, pl := twoProd(s, s)
	rh, rl := ddAdd(x.Hi, x.Lo, -ph, -pl)
	d := (rh + rl) / (2 * s)
	z.Hi, z.Lo = quickTwoSum(s, d)
	return false
}

func (o *ddOracle) Neg(z, x *Value) { z.Hi, z.Lo = -x.Hi, -x.Lo }

func (o *ddOracle) Abs(z, x *Value) {
	if x.Hi < 0 || (x.Hi == 0 && x.Lo < 0) {
		z.Hi, z.Lo = -x.Hi, -x.Lo
	} else {
		z.Hi, z.Lo = x.Hi, x.Lo
	}
}

func (o *ddOracle) FMA(z, a, b, c *Value) {
	ph, pl := ddMul(a.Hi, a.Lo, b.Hi, b.Lo)
	z.Hi, z.Lo = ddAdd(ph, pl, c.Hi, c.Lo)
}

// Cmp relies on normalization: Hi alone orders distinct pairs, and equal
// Hi defers to the error terms.
func (o *ddOracle) Cmp(x, y *Value) int {
	switch {
	case x.Hi < y.Hi:
		return -1
	case x.Hi > y.Hi:
		return 1
	case x.Lo < y.Lo:
		return -1
	case x.Lo > y.Lo:
		return 1
	}
	return 0
}

func (o *ddOracle) Sign(x *Value) int {
	h := x.Hi
	if h == 0 {
		h = x.Lo
	}
	switch {
	case h < 0:
		return -1
	case h > 0:
		return 1
	}
	return 0
}

// Float64 rounds to nearest: for a normalized pair Hi already is
// RN(Hi+Lo), and the explicit IEEE add makes that hold for denormalized
// pairs too.
func (o *ddOracle) Float64(x *Value) float64 { return x.Hi + x.Lo }

const maxI64f = 9223372036854775808.0 // 2^63, exactly representable

func (o *ddOracle) Int64(x *Value) int64 {
	hi, lo := x.Hi, x.Lo
	if hi >= maxI64f {
		return math.MaxInt64
	}
	if hi < -maxI64f {
		return math.MinInt64
	}
	t := math.Trunc(hi)
	r := (hi - t) + lo // exact: both terms are < 1 in magnitude apart
	n := int64(t) + int64(math.Trunc(r))
	// Truncation is toward zero on the combined value, so a leftover
	// fractional part whose sign opposes n means the Hi-only truncation
	// overshot across an integer boundary (e.g. 2^60 − 0.5).
	fr := r - math.Trunc(r)
	switch {
	case fr < 0 && n > 0:
		n--
	case fr > 0 && n < 0:
		n++
	}
	return n
}

func (o *ddOracle) Ulps(computed float64, x *Value) uint64 {
	return ulp.Distance(computed, x.Hi+x.Lo)
}

func (o *ddOracle) Format(x *Value) string {
	return strconv.FormatFloat(x.Hi+x.Lo, 'g', 10, 64)
}

// Big reconstructs the exact pair value: 128 bits comfortably holds the
// ≤107-bit span of a normalized dd.
func (o *ddOracle) Big(z *big.Float, x *Value) {
	z.SetPrec(128).SetFloat64(x.Hi)
	o.bs1.SetFloat64(x.Lo)
	z.Add(z, &o.bs1)
}

func (o *ddOracle) SetBig(z *Value, x *big.Float) {
	hi, _ := x.Float64()
	if math.IsInf(hi, 0) {
		z.Hi, z.Lo = hi, 0
		return
	}
	o.bs1.SetFloat64(hi)
	o.bs2.SetPrec(x.Prec()+64).Sub(x, &o.bs1)
	lo, _ := o.bs2.Float64()
	z.Hi, z.Lo = hi, lo
}
