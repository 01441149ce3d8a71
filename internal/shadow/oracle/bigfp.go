package oracle

import (
	"math/big"
	"strconv"

	"positdebug/internal/bigfp"
	"positdebug/internal/ulp"
)

// bigFPOracle adapts internal/bigfp to the Oracle interface. Every method
// mirrors the bigfp.Context call the pre-oracle runtime made, so bigfp-
// configured runs stay byte-identical to the historical shadow engine:
// same rounding (to-nearest-even at the configured precision), same
// division-by-zero / negative-sqrt undefined handling, same float64
// rounding in the ULP metric and report formatting.
type bigFPOracle struct {
	ctx  bigfp.Context
	prec uint
	// fmaProd holds the exact a·b product at double precision between the
	// multiply and the single rounding add, so fused ops stay
	// allocation-free on the warm path.
	fmaProd big.Float
}

func newBigFPOracle(prec uint) *bigFPOracle {
	if prec == 0 {
		prec = 256
	}
	return &bigFPOracle{ctx: bigfp.New(prec), prec: prec}
}

func (o *bigFPOracle) Kind() Kind        { return BigFP }
func (o *bigFPOracle) Precision() uint   { return o.prec }
func (o *bigFPOracle) EntryBytes() int64 { return int64(o.prec) / 2 }

func (o *bigFPOracle) SetFloat64(z *Value, f float64) { o.ctx.SetFloat64(&z.Big, f) }

func (o *bigFPOracle) SetInt64(z *Value, v int64) {
	z.Big.SetPrec(o.prec).SetInt64(v)
}

func (o *bigFPOracle) Copy(z, x *Value) { o.ctx.Copy(&z.Big, &x.Big) }

func (o *bigFPOracle) Add(z, x, y *Value) { o.ctx.Add(&z.Big, &x.Big, &y.Big) }
func (o *bigFPOracle) Sub(z, x, y *Value) { o.ctx.Sub(&z.Big, &x.Big, &y.Big) }
func (o *bigFPOracle) Mul(z, x, y *Value) { o.ctx.Mul(&z.Big, &x.Big, &y.Big) }

func (o *bigFPOracle) Div(z, x, y *Value) bool {
	_, undef := o.ctx.Div(&z.Big, &x.Big, &y.Big)
	return undef
}

func (o *bigFPOracle) Sqrt(z, x *Value) bool {
	_, undef := o.ctx.Sqrt(&z.Big, &x.Big)
	return undef
}

func (o *bigFPOracle) Neg(z, x *Value) { o.ctx.Neg(&z.Big, &x.Big) }
func (o *bigFPOracle) Abs(z, x *Value) { o.ctx.Abs(&z.Big, &x.Big) }

func (o *bigFPOracle) FMA(z, a, b, c *Value) {
	o.fmaProd.SetPrec(2*o.prec).Mul(&a.Big, &b.Big)
	o.ctx.Add(&z.Big, &o.fmaProd, &c.Big)
}

func (o *bigFPOracle) Cmp(x, y *Value) int { return x.Big.Cmp(&y.Big) }
func (o *bigFPOracle) Sign(x *Value) int   { return x.Big.Sign() }

func (o *bigFPOracle) Float64(x *Value) float64 {
	f, _ := x.Big.Float64()
	return f
}

func (o *bigFPOracle) Int64(x *Value) int64 {
	i, _ := x.Big.Int64()
	return i
}

func (o *bigFPOracle) Ulps(computed float64, x *Value, scratch *big.Float) uint64 {
	return ulp.DistanceBigScratch(computed, &x.Big, scratch)
}

func (o *bigFPOracle) Format(x *Value) string {
	f, _ := x.Big.Float64()
	return strconv.FormatFloat(f, 'g', 10, 64)
}

// Big copies exactly: big.Float.Copy preserves the source precision, so
// quire accumulation sees the same operand the pre-oracle runtime fed it.
func (o *bigFPOracle) Big(z *big.Float, x *Value) { z.Copy(&x.Big) }

func (o *bigFPOracle) SetBig(z *Value, x *big.Float) { o.ctx.Copy(&z.Big, x) }
