package oracle

import (
	"math/big"
	"strconv"

	"positdebug/internal/bigfp"
	"positdebug/internal/ulp"
)

// bigFPOracle adapts internal/bigfp to the Oracle interface: every value is
// a bigfp.Float at the configured precision, rounded to nearest-even, with
// division by zero and the root of a negative undefined. Its results equal
// math/big.Float's at the same precision bit for bit, so bigfp runs stay
// byte-identical to the historical big.Float shadow engine.
type bigFPOracle struct {
	ctx *bigfp.Context
}

func (o *bigFPOracle) Kind() Kind        { return BigFP }
func (o *bigFPOracle) Precision() uint   { return o.ctx.Prec() }
func (o *bigFPOracle) EntryBytes() int64 { return int64(o.ctx.Prec()) / 2 }

func (o *bigFPOracle) SetFloat64(z *Value, f float64) { o.ctx.SetFloat64(&z.Big, f) }
func (o *bigFPOracle) SetInt64(z *Value, v int64)     { o.ctx.SetInt64(&z.Big, v) }
func (o *bigFPOracle) Copy(z, x *Value)               { o.ctx.Set(&z.Big, &x.Big) }

func (o *bigFPOracle) Add(z, x, y *Value) { o.ctx.Add(&z.Big, &x.Big, &y.Big) }
func (o *bigFPOracle) Sub(z, x, y *Value) { o.ctx.Sub(&z.Big, &x.Big, &y.Big) }
func (o *bigFPOracle) Mul(z, x, y *Value) { o.ctx.Mul(&z.Big, &x.Big, &y.Big) }

func (o *bigFPOracle) Div(z, x, y *Value) bool { return o.ctx.Div(&z.Big, &x.Big, &y.Big) }
func (o *bigFPOracle) Sqrt(z, x *Value) bool   { return o.ctx.Sqrt(&z.Big, &x.Big) }

func (o *bigFPOracle) Neg(z, x *Value)       { o.ctx.Neg(&z.Big, &x.Big) }
func (o *bigFPOracle) Abs(z, x *Value)       { o.ctx.Abs(&z.Big, &x.Big) }
func (o *bigFPOracle) FMA(z, a, b, c *Value) { o.ctx.FMA(&z.Big, &a.Big, &b.Big, &c.Big) }

func (o *bigFPOracle) Cmp(x, y *Value) int      { return x.Big.Cmp(&y.Big) }
func (o *bigFPOracle) Sign(x *Value) int        { return x.Big.Sign() }
func (o *bigFPOracle) Float64(x *Value) float64 { return x.Big.Float64() }
func (o *bigFPOracle) Int64(x *Value) int64     { return x.Big.Int64() }

func (o *bigFPOracle) Ulps(computed float64, x *Value) uint64 {
	return ulp.Distance(computed, x.Big.Float64())
}

func (o *bigFPOracle) Format(x *Value) string {
	return strconv.FormatFloat(x.Big.Float64(), 'g', 10, 64)
}

func (o *bigFPOracle) Big(z *big.Float, x *Value)    { o.ctx.Big(z, &x.Big) }
func (o *bigFPOracle) SetBig(z *Value, x *big.Float) { o.ctx.SetBig(&z.Big, x) }
