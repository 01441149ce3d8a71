package oracle

import (
	"math"
	"math/big"
	"strconv"

	"positdebug/internal/ulp"
)

// residuePrecision: the estimate is one float64.
const residuePrecision = 53

// residueOracle is the cheapest shadow tier: Hi carries a plain float64
// shadow estimate (NSan's "shadow in twice-the-width native FP" applied to
// ≤32-bit posits, whose 28 max fraction bits sit far below float64's 53),
// and Lo records the producing operation's *own* exact rounding residue,
// captured with the same error-free transformations the dd oracle builds
// on. The residue is not propagated into later arithmetic — that is the
// dd oracle's job — but it pins down exactly how much error the local
// operation contributed, in the spirit of "Accurate Residues": a report
// for instruction i can distinguish error *introduced* at i (large |Lo|
// relative to Hi) from error *inherited* through operands.
type residueOracle struct{}

func (o *residueOracle) Kind() Kind        { return Residue }
func (o *residueOracle) Precision() uint   { return residuePrecision }
func (o *residueOracle) EntryBytes() int64 { return 8 }

func (o *residueOracle) SetFloat64(z *Value, f float64) { z.Hi, z.Lo = f, 0 }

func (o *residueOracle) SetInt64(z *Value, v int64) { z.Hi, z.Lo = float64(v), 0 }

func (o *residueOracle) Copy(z, x *Value) { z.Hi, z.Lo = x.Hi, x.Lo }

func (o *residueOracle) Add(z, x, y *Value) { z.Hi, z.Lo = twoSum(x.Hi, y.Hi) }

func (o *residueOracle) Sub(z, x, y *Value) { z.Hi, z.Lo = twoSum(x.Hi, -y.Hi) }

func (o *residueOracle) Mul(z, x, y *Value) { z.Hi, z.Lo = twoProd(x.Hi, y.Hi) }

func (o *residueOracle) Div(z, x, y *Value) bool {
	if y.Hi == 0 {
		z.Hi, z.Lo = 0, 0
		return true
	}
	q := x.Hi / y.Hi
	// r = x − q·y is the exact remainder (FMA), so −r/y is the rounding
	// error of the quotient to first order.
	z.Hi, z.Lo = q, -math.FMA(q, y.Hi, -x.Hi)/y.Hi
	return false
}

func (o *residueOracle) Sqrt(z, x *Value) bool {
	if x.Hi < 0 {
		z.Hi, z.Lo = 0, 0
		return true
	}
	s := math.Sqrt(x.Hi)
	var e float64
	if s != 0 && !math.IsInf(s, 0) {
		e = -math.FMA(s, s, -x.Hi) / (2 * s)
	}
	z.Hi, z.Lo = s, e
	return false
}

func (o *residueOracle) Neg(z, x *Value) { z.Hi, z.Lo = -x.Hi, -x.Lo }

func (o *residueOracle) Abs(z, x *Value) {
	if x.Hi < 0 || (x.Hi == 0 && math.Signbit(x.Hi)) {
		z.Hi, z.Lo = -x.Hi, -x.Lo
	} else {
		z.Hi, z.Lo = x.Hi, x.Lo
	}
}

func (o *residueOracle) FMA(z, a, b, c *Value) {
	r := math.FMA(a.Hi, b.Hi, c.Hi)
	// The fused op rounds once; recover its residue with a dd-valued
	// recomputation of a·b + c against the rounded result.
	ph, pl := twoProd(a.Hi, b.Hi)
	sh, sl := ddAdd(ph, pl, c.Hi, 0)
	eh, el := ddAdd(sh, sl, -r, 0)
	z.Hi, z.Lo = r, eh+el
}

func (o *residueOracle) Cmp(x, y *Value) int {
	switch {
	case x.Hi < y.Hi:
		return -1
	case x.Hi > y.Hi:
		return 1
	}
	return 0
}

func (o *residueOracle) Sign(x *Value) int {
	switch {
	case x.Hi < 0:
		return -1
	case x.Hi > 0:
		return 1
	}
	return 0
}

func (o *residueOracle) Float64(x *Value) float64 { return x.Hi }

func (o *residueOracle) Int64(x *Value) int64 {
	hi := x.Hi
	if hi >= maxI64f {
		return math.MaxInt64
	}
	if hi < -maxI64f {
		return math.MinInt64
	}
	return int64(math.Trunc(hi))
}

func (o *residueOracle) Ulps(computed float64, x *Value) uint64 {
	return ulp.Distance(computed, x.Hi)
}

func (o *residueOracle) Format(x *Value) string {
	return strconv.FormatFloat(x.Hi, 'g', 10, 64)
}

func (o *residueOracle) Big(z *big.Float, x *Value) {
	if z.Prec() == 0 {
		z.SetPrec(64)
	}
	z.SetFloat64(x.Hi)
}

func (o *residueOracle) SetBig(z *Value, x *big.Float) {
	f, _ := x.Float64()
	z.Hi, z.Lo = f, 0
}
