package oracle

import (
	"math/big"
	"strconv"

	"positdebug/internal/bigfp"
	"positdebug/internal/ulp"
)

// refOracle is the bigfp oracle as it computed before bigfp.Float: every
// operation runs on math/big.Float at the configured precision under
// ToNearestEven, exactly as the historical shadow engine did. Its values
// still live in Value.Big, written and read by exact conversion, so the
// shadow runtime and its checkpoints handle them unchanged while every
// rounding decision is math/big's.
type refOracle struct {
	prec uint
	conv *bigfp.Context // the exact conversions to and from Value.Big

	x, y, w, z, prod big.Float
}

func newRefOracle(prec uint) *refOracle {
	if prec == 0 {
		prec = 256
	}
	return &refOracle{prec: prec, conv: bigfp.New(prec)}
}

// load sets b to x's value exactly.
func (o *refOracle) load(b *big.Float, x *Value) *big.Float { return o.conv.Big(b, &x.Big) }

// res returns the result register at the oracle's precision and mode.
func (o *refOracle) res() *big.Float { return o.z.SetPrec(o.prec).SetMode(big.ToNearestEven) }

// store sets z to the result register, which holds at most prec bits.
func (o *refOracle) store(z *Value) { o.conv.SetBig(&z.Big, &o.z) }

func (o *refOracle) Kind() Kind        { return BigFP }
func (o *refOracle) Precision() uint   { return o.prec }
func (o *refOracle) EntryBytes() int64 { return int64(o.prec) / 2 }

func (o *refOracle) SetFloat64(z *Value, f float64) { o.res().SetFloat64(f); o.store(z) }
func (o *refOracle) SetInt64(z *Value, v int64)     { o.res().SetInt64(v); o.store(z) }
func (o *refOracle) Copy(z, x *Value)               { o.res().Set(o.load(&o.x, x)); o.store(z) }

func (o *refOracle) Add(z, x, y *Value) {
	o.res().Add(o.load(&o.x, x), o.load(&o.y, y))
	o.store(z)
}

func (o *refOracle) Sub(z, x, y *Value) {
	o.res().Sub(o.load(&o.x, x), o.load(&o.y, y))
	o.store(z)
}

func (o *refOracle) Mul(z, x, y *Value) {
	o.res().Mul(o.load(&o.x, x), o.load(&o.y, y))
	o.store(z)
}

func (o *refOracle) Div(z, x, y *Value) bool {
	undef := o.load(&o.y, y).Sign() == 0
	if undef {
		o.res().SetInt64(0)
	} else {
		o.res().Quo(o.load(&o.x, x), &o.y)
	}
	o.store(z)
	return undef
}

func (o *refOracle) Sqrt(z, x *Value) bool {
	undef := o.load(&o.x, x).Sign() < 0
	if undef {
		o.res().SetInt64(0)
	} else {
		o.res().Sqrt(&o.x)
	}
	o.store(z)
	return undef
}

func (o *refOracle) Neg(z, x *Value) { o.res().Neg(o.load(&o.x, x)); o.store(z) }
func (o *refOracle) Abs(z, x *Value) { o.res().Abs(o.load(&o.x, x)); o.store(z) }

func (o *refOracle) FMA(z, a, b, c *Value) {
	o.prod.SetPrec(2*o.prec).Mul(o.load(&o.x, a), o.load(&o.y, b))
	o.res().Add(&o.prod, o.load(&o.w, c))
	o.store(z)
}

func (o *refOracle) Cmp(x, y *Value) int { return o.load(&o.x, x).Cmp(o.load(&o.y, y)) }
func (o *refOracle) Sign(x *Value) int   { return o.load(&o.x, x).Sign() }

func (o *refOracle) Float64(x *Value) float64 {
	f, _ := o.load(&o.x, x).Float64()
	return f
}

func (o *refOracle) Int64(x *Value) int64 {
	i, _ := o.load(&o.x, x).Int64()
	return i
}

func (o *refOracle) Ulps(computed float64, x *Value) uint64 {
	return ulp.Distance(computed, o.Float64(x))
}

func (o *refOracle) Format(x *Value) string {
	return strconv.FormatFloat(o.Float64(x), 'g', 10, 64)
}

// Big copies x at the oracle's precision, as big.Float.Copy of the
// historical value did.
func (o *refOracle) Big(z *big.Float, x *Value) { z.Copy(o.res().Set(o.load(&o.x, x))) }

func (o *refOracle) SetBig(z *Value, x *big.Float) { o.res().Set(x); o.store(z) }
