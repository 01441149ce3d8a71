package bigfp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"positdebug/internal/posit"
)

func TestPrecisionIsEnforced(t *testing.T) {
	c := New(128)
	if c.Prec() != 128 {
		t.Fatal("prec")
	}
	var x, y, z Float
	c.SetInt64(&x, 1)
	c.SetBig(&y, new(big.Float).SetMantExp(big.NewFloat(1), -200)) // 2^-200
	c.Add(&z, &x, &y)
	// At 128-bit precision, 1 + 2^-200 rounds back to 1.
	if z.Cmp(&x) != 0 {
		t.Fatal("128-bit context must round away 2^-200")
	}
	wide := New(512)
	wide.SetBig(&y, new(big.Float).SetMantExp(big.NewFloat(1), -200))
	wide.Add(&z, &x, &y)
	if z.Cmp(&x) == 0 {
		t.Fatal("512-bit context must retain 2^-200")
	}
}

func TestDefaultPrecision(t *testing.T) {
	if New(0).Prec() != 256 {
		t.Fatal("default precision must be 256 (the paper's default)")
	}
}

func TestArithmetic(t *testing.T) {
	c := New(256)
	var two, three, five, zero, z Float
	c.SetFloat64(&two, 2)
	c.SetFloat64(&three, 3)
	c.SetFloat64(&five, -5)
	if c.Mul(&z, &two, &three); z.Float64() != 6 {
		t.Fatalf("2·3 = %v", z.Float64())
	}
	if c.Sub(&z, &three, &two); z.Float64() != 1 {
		t.Fatalf("3−2 = %v", z.Float64())
	}
	if undef := c.Div(&z, &three, &two); undef || z.Float64() != 1.5 {
		t.Fatalf("3/2 = %v (undef=%v)", z.Float64(), undef)
	}
	if !c.Div(&z, &three, &zero) {
		t.Fatal("division by zero must report undefined")
	}
	c.SetFloat64(&z, 9)
	if undef := c.Sqrt(&z, &z); undef || z.Float64() != 3 {
		t.Fatalf("sqrt(9) = %v", z.Float64())
	}
	if !c.Sqrt(&z, &five) {
		t.Fatal("sqrt(−5) must report undefined")
	}
	if c.Neg(&z, &two); z.Float64() != -2 {
		t.Fatalf("−2 = %v", z.Float64())
	}
	if c.Abs(&z, &five); z.Float64() != 5 {
		t.Fatalf("|−5| = %v", z.Float64())
	}
	if c.FMA(&z, &two, &three, &five); z.Float64() != 1 {
		t.Fatalf("2·3 + −5 = %v", z.Float64())
	}
}

// TestShadowOfCancellation demonstrates the role the context plays in the
// runtime: the 256-bit shadow of the Fig 2 discriminant retains the true
// value 2.405e20 while ⟨32,2⟩ posit arithmetic cancels to zero.
func TestShadowOfCancellation(t *testing.T) {
	c := New(256)
	cfg := posit.Config32
	var a, b, cc, four, t1, t2, d Float
	c.SetFloat64(&a, 1.8309067625725952e16)
	c.SetFloat64(&b, 3.24664295424e12)
	c.SetFloat64(&cc, 1.43923904e8)
	c.SetFloat64(&four, 4)
	c.Mul(&t1, &b, &b)
	c.Mul(&t2, &four, &a)
	c.Mul(&t2, &t2, &cc)
	c.Sub(&d, &t1, &t2)
	got := d.Float64()
	if math.Abs(got-2.40507138275350151168e20)/2.4e20 > 1e-12 {
		t.Fatalf("shadow discriminant = %g, want 2.40507…e20", got)
	}
	// While the posit program computes 0.
	pd := cfg.Sub(
		cfg.Mul(cfg.FromFloat64(3.24664295424e12), cfg.FromFloat64(3.24664295424e12)),
		cfg.Mul(cfg.Mul(cfg.FromFloat64(4), cfg.FromFloat64(1.8309067625725952e16)), cfg.FromFloat64(1.43923904e8)))
	if pd != 0 {
		t.Fatal("posit discriminant must cancel")
	}
}

// TestSignedZeros pins math/big's signed-zero rules.
func TestSignedZeros(t *testing.T) {
	c := New(256)
	var x, y, z, negZero Float
	c.SetFloat64(&x, 1.5)
	c.SetFloat64(&y, -2)
	c.SetFloat64(&negZero, math.Copysign(0, -1))
	check := func(what string, wantNeg bool) {
		t.Helper()
		if form, neg, _, _ := z.Parts(); form != Zero || neg != wantNeg {
			t.Errorf("%s = %v (signbit %v), want zero with signbit %v", what, z.Float64(), neg, wantNeg)
		}
	}
	c.Sub(&z, &x, &x)
	check("x − x", false)
	c.Add(&z, &negZero, &negZero)
	check("(−0) + (−0)", true)
	c.Mul(&z, &Float{}, &y)
	check("0 × (−2)", true)
	c.Neg(&z, &Float{})
	check("Neg(+0)", true)
	c.Abs(&z, &negZero)
	check("Abs(−0)", false)
	if negZero.Cmp(&Float{}) != 0 {
		t.Error("Cmp(−0, +0) must be 0")
	}
}

// The differential machine runs chains of operations on registers that
// hold a Float and, beside it, the math/big.Float the pre-bigfp oracle
// would have computed at the same precision under ToNearestEven, and
// compares them after every operation.
const nreg = 4

// Operations of a differential step.
const (
	opAdd = iota
	opSub
	opMul
	opSquare
	opDiv
	opSqrt
	opNeg
	opAbs
	opFMA
	opSet
	opSetFloat64
	opSetInt64
	opSetBig
	nops
)

// step is one operation: z = op(x, y, w) under the main context, or under
// the alternate one (a different precision) when alt is set. seed feeds
// SetFloat64 (as float64 bits) and SetInt64.
type step struct {
	op         byte
	z, x, y, w byte
	alt        bool
	seed       uint64
}

const stepBytes = 12

// program encodes precisions and steps in FuzzFloat's input format.
func program(prec, alt uint, steps ...step) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(prec-64))
	b = binary.LittleEndian.AppendUint16(b, uint16(alt-64))
	for _, s := range steps {
		var flags byte
		if s.alt {
			flags = 1
		}
		b = append(b, s.op, s.z|s.x<<4, s.y|s.w<<4, flags)
		b = binary.LittleEndian.AppendUint64(b, s.seed)
	}
	return b
}

// decode parses FuzzFloat's input: two little-endian uint16 precisions
// (offsets from 64, reduced into [64, 4096]) and 12-byte steps.
func decode(b []byte) (prec, alt uint, steps []step) {
	if len(b) < 4 {
		return 0, 0, nil
	}
	prec = 64 + uint(binary.LittleEndian.Uint16(b))%4033
	alt = 64 + uint(binary.LittleEndian.Uint16(b[2:]))%4033
	for b = b[4:]; len(b) >= stepBytes; b = b[stepBytes:] {
		steps = append(steps, step{
			op: b[0] % nops, z: b[1] & 15 % nreg, x: b[1] >> 4 % nreg,
			y: b[2] & 15 % nreg, w: b[2] >> 4 % nreg, alt: b[3]&1 == 1,
			seed: binary.LittleEndian.Uint64(b[4:]),
		})
	}
	return prec, alt, steps
}

type machine struct {
	t         testing.TB
	ctx, alt  *Context
	got       [nreg]Float
	want      [nreg]big.Float
	tmp, prod big.Float
	res       big.Float // math/big's result before it is copied into want
}

func newMachine(t testing.TB, prec, alt uint) *machine {
	return &machine{t: t, ctx: New(prec), alt: New(alt)}
}

// catch runs f and returns what it panicked with, if anything.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func (m *machine) run(steps []step) {
	for i, s := range steps {
		m.step(i, s)
		if m.t.Failed() {
			m.t.Fatalf("after step %d of %+v", i, steps)
		}
	}
}

func (m *machine) step(i int, s step) {
	c := m.ctx
	if s.alt {
		c = m.alt
	}
	p := c.Prec()
	gz, gx, gy, gw := &m.got[s.z], &m.got[s.x], &m.got[s.y], &m.got[s.w]
	wz, wx, wy, ww := &m.want[s.z], &m.want[s.x], &m.want[s.y], &m.want[s.w]
	// math/big computes into res, so that rounding z to p bits first
	// cannot round an operand z aliases; z copies res after the step.
	res := &m.res
	ref := func() *big.Float { return res.SetPrec(p).SetMode(big.ToNearestEven) }
	var gotUndef, wantUndef bool
	var gotFn, wantFn func()
	switch s.op {
	case opAdd:
		gotFn, wantFn = func() { c.Add(gz, gx, gy) }, func() { ref().Add(wx, wy) }
	case opSub:
		gotFn, wantFn = func() { c.Sub(gz, gx, gy) }, func() { ref().Sub(wx, wy) }
	case opMul:
		gotFn, wantFn = func() { c.Mul(gz, gx, gy) }, func() { ref().Mul(wx, wy) }
	case opSquare:
		gotFn, wantFn = func() { c.Mul(gz, gx, gx) }, func() { ref().Mul(wx, wx) }
	case opDiv:
		gotFn = func() { gotUndef = c.Div(gz, gx, gy) }
		wantFn = func() {
			if wantUndef = wy.Sign() == 0; wantUndef {
				ref().SetInt64(0)
			} else {
				ref().Quo(wx, wy)
			}
		}
	case opSqrt:
		gotFn = func() { gotUndef = c.Sqrt(gz, gx) }
		wantFn = func() {
			if wantUndef = wx.Sign() < 0; wantUndef {
				ref().SetInt64(0)
			} else {
				ref().Sqrt(wx)
			}
		}
	case opNeg:
		gotFn, wantFn = func() { c.Neg(gz, gx) }, func() { ref().Neg(wx) }
	case opAbs:
		gotFn, wantFn = func() { c.Abs(gz, gx) }, func() { ref().Abs(wx) }
	case opFMA:
		gotFn = func() { c.FMA(gz, gx, gy, gw) }
		wantFn = func() { ref().Add(m.prod.SetPrec(2*p).Mul(wx, wy), ww) }
	case opSet:
		gotFn, wantFn = func() { c.Set(gz, gx) }, func() { ref().Set(wx) }
	case opSetFloat64:
		f := math.Float64frombits(s.seed)
		gotFn, wantFn = func() { c.SetFloat64(gz, f) }, func() { ref().SetFloat64(f) }
	case opSetInt64:
		v := int64(s.seed)
		gotFn, wantFn = func() { c.SetInt64(gz, v) }, func() { ref().SetInt64(v) }
	case opSetBig:
		// A 768-bit quire-like accumulator: x·y + w, rounded back.
		var q big.Float
		qerr := catch(func() { q.SetPrec(768).Add(m.prod.SetPrec(768).Mul(wx, wy), ww) })
		if qerr != nil {
			return
		}
		gotFn, wantFn = func() { c.SetBig(gz, &q) }, func() { ref().Set(&q) }
	}
	gotErr, wantErr := catch(gotFn), catch(func() { wantFn(); wz.Copy(res) })
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		m.t.Errorf("step %d %+v at %d bits: panic %v, math/big %v", i, s, p, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		if _, ok := gotErr.(big.ErrNaN); !ok {
			m.t.Errorf("step %d: panic %T %v, want big.ErrNaN", i, gotErr, gotErr)
		}
		// The destination is undefined after ErrNaN.
		m.ctx.SetInt64(gz, 0)
		wz.SetInt64(0)
		return
	}
	if gotUndef != wantUndef {
		m.t.Errorf("step %d %+v: undefined %v, math/big %v", i, s, gotUndef, wantUndef)
	}
	m.check(i, s.z)
	m.compare(i, s.z, s.x)
	m.compare(i, s.z, s.w)
}

// check compares register r's value, sign, float64 and int64 conversions.
func (m *machine) check(i int, r byte) {
	g, w := &m.got[r], &m.want[r]
	v := m.ctx.Big(&m.tmp, g)
	form, neg, _, _ := g.Parts()
	if v.Cmp(w) != 0 || neg != w.Signbit() || g.Sign() != w.Sign() || (form == Inf) != w.IsInf() {
		m.t.Errorf("step %d: r%d = %s, math/big %s", i, r, v.Text('p', 0), w.Text('p', 0))
	}
	gf := g.Float64()
	wf, _ := w.Float64()
	if math.Float64bits(gf) != math.Float64bits(wf) {
		m.t.Errorf("step %d: r%d.Float64() = %v (%#x), math/big %v (%#x) for %s",
			i, r, gf, math.Float64bits(gf), wf, math.Float64bits(wf), w.Text('p', 0))
	}
	wi, _ := w.Int64()
	if gi := g.Int64(); gi != wi {
		m.t.Errorf("step %d: r%d.Int64() = %d, math/big %d for %s", i, r, gi, wi, w.Text('p', 0))
	}
}

func (m *machine) compare(i int, a, b byte) {
	if got, want := m.got[a].Cmp(&m.got[b]), m.want[a].Cmp(&m.want[b]); got != want {
		m.t.Errorf("step %d: Cmp(r%d, r%d) = %d, math/big %d", i, a, b, got, want)
	}
}

func f64(f float64) uint64 { return math.Float64bits(f) }

// pow2 computes 2^e into register z, through tmp, from float64 powers.
func pow2(z, tmp byte, e int) []step {
	chunk := func(e int) int { return max(min(e, 1000), -1000) }
	steps := []step{{op: opSetFloat64, z: z, seed: f64(math.Ldexp(1, chunk(e)))}}
	for e -= chunk(e); e != 0; e -= chunk(e) {
		steps = append(steps,
			step{op: opSetFloat64, z: tmp, seed: f64(math.Ldexp(1, chunk(e)))},
			step{op: opMul, z: z, x: z, y: tmp})
	}
	return steps
}

func concat(parts ...[]step) []step {
	var steps []step
	for _, p := range parts {
		steps = append(steps, p...)
	}
	return steps
}

// scripted are chains that reach the cases a correctly rounded format gets
// wrong first: exact ties (both ways), total cancellation, float64
// subnormal and overflowing roundings, and the int32 exponent bounds,
// which take repeated squaring.
func scripted(prec uint) map[string][]step {
	p := int(prec)
	var squares []step
	for range 34 {
		squares = append(squares, step{op: opSquare, z: 0, x: 0, w: 1})
	}
	return map[string][]step{
		// 1 + 2^−p is a tie that even 1 wins; 1 + 3·2^−p ties up to
		// 1 + 2^(2−p), and 1 − 3·2^−p is exact.
		"ties": concat(pow2(1, 3, -p), []step{
			{op: opSetFloat64, z: 0, seed: f64(1)},
			{op: opAdd, z: 2, x: 0, y: 1},
			{op: opSub, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 3, seed: f64(3)},
			{op: opMul, z: 3, x: 1, y: 3},
			{op: opAdd, z: 2, x: 0, y: 3},
			{op: opSub, z: 2, x: 0, y: 3},
			{op: opAdd, z: 1, x: 2, y: 1},
			{op: opFMA, z: 2, x: 1, y: 3, w: 0},
		}),
		// 2^p ± 1 and ± 3: ties between p-bit neighbours at the top.
		"edge": concat(pow2(0, 3, p), []step{
			{op: opSetFloat64, z: 1, seed: f64(1)},
			{op: opAdd, z: 2, x: 0, y: 1},
			{op: opSub, z: 3, x: 0, y: 1},
			{op: opSub, z: 2, x: 2, y: 3},
			{op: opSetFloat64, z: 1, seed: f64(3)},
			{op: opAdd, z: 2, x: 0, y: 1},
			{op: opSub, z: 2, x: 3, y: 1},
			{op: opMul, z: 2, x: 3, y: 3},
			{op: opSetBig, z: 2, x: 3, y: 3, w: 1},
			{op: opSetInt64, z: 1, seed: 1<<63 + 1},
			{op: opMul, z: 2, x: 1, y: 1},
			{op: opMul, z: 2, x: 2, y: 1},
		}),
		// (1 − 2^−p) + 2^(1−p) + 2^(−64(n+1)) carries out of the sum's
		// frame, and the bit the carry shifts out is all that lifts the
		// tie 1 + 2^−p.
		"carry-sticky": concat(pow2(1, 3, 1-p), pow2(2, 3, -64*((p+63)/64+1)), []step{
			{op: opAdd, z: 1, x: 1, y: 2},
		}, pow2(2, 3, -p), []step{
			{op: opSetFloat64, z: 0, seed: f64(1)},
			{op: opSub, z: 0, x: 0, y: 2},
			{op: opAdd, z: 2, x: 0, y: 1},
		}),
		"cancellation": {
			{op: opSetFloat64, z: 0, seed: f64(math.Pi)},
			{op: opSetFloat64, z: 1, seed: f64(math.E)},
			{op: opDiv, z: 2, x: 0, y: 1},
			{op: opMul, z: 3, x: 2, y: 1},
			{op: opSub, z: 3, x: 3, y: 0},
			{op: opSub, z: 3, x: 2, y: 2},
			{op: opNeg, z: 1, x: 3},
			{op: opAdd, z: 1, x: 1, y: 1},
			{op: opAdd, z: 3, x: 3, y: 3},
			{op: opMul, z: 1, x: 1, y: 0},
			{op: opSqrt, z: 1, x: 2},
			{op: opMul, z: 3, x: 1, y: 1},
			{op: opSub, z: 3, x: 3, y: 2},
		},
		"subnormal": {
			{op: opSetFloat64, z: 0, seed: f64(math.SmallestNonzeroFloat64)},
			{op: opSetFloat64, z: 1, seed: f64(0.75)},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(0.5)},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(1.5)},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(3)},
			{op: opDiv, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 3, seed: f64(math.Ldexp(1, -1022))},
			{op: opSetFloat64, z: 1, seed: f64(1 - math.Ldexp(1, -53))},
			{op: opMul, z: 2, x: 3, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(1 - math.Ldexp(1, -60))},
			{op: opMul, z: 2, x: 3, y: 1},
			// Half the smallest subnormal ties to 0; a bit more, two
			// words down, rounds up.
			{op: opSetFloat64, z: 1, seed: f64(0.5)},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(math.Ldexp(1, -101))},
			{op: opMul, z: 3, x: 2, y: 1},
			{op: opAdd, z: 2, x: 2, y: 3},
		},
		"overflow": {
			{op: opSetFloat64, z: 0, seed: f64(math.MaxFloat64)},
			{op: opSetFloat64, z: 1, seed: f64(1 + math.Ldexp(1, -53))},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(1 + math.Ldexp(1, -60))},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opAdd, z: 2, x: 0, y: 0},
			{op: opSetInt64, z: 3, seed: 1 << 63},
			{op: opMul, z: 3, x: 3, y: 3},
		},
		// −3 squared 34 times overflows the int32 exponent to +Inf, which
		// then meets Inf − Inf and 0 × Inf.
		"exponent-max": concat([]step{{op: opSetFloat64, z: 0, seed: f64(-3)}}, squares, []step{
			{op: opSetFloat64, z: 1, seed: f64(2)},
			{op: opSub, z: 2, x: 0, y: 0},
			{op: opAdd, z: 2, x: 0, y: 1},
			{op: opMul, z: 2, x: 0, y: 3},
			{op: opDiv, z: 2, x: 1, y: 0},
			{op: opSqrt, z: 2, x: 0},
		}),
		// −0.75 squared 34 times underflows to +0.
		"exponent-min": concat([]step{{op: opSetFloat64, z: 0, seed: f64(-0.75)}}, squares, []step{
			{op: opNeg, z: 1, x: 0},
			{op: opMul, z: 2, x: 0, y: 1},
		}),
		// Near the bounds: an exponent one squaring short, then across.
		"exponent-edge": concat([]step{{op: opSetFloat64, z: 0, seed: f64(1 - math.Ldexp(1, -40))}}, squares[:31], []step{
			{op: opSetFloat64, z: 1, seed: f64(math.Ldexp(1, 1000))},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opDiv, z: 3, x: 0, y: 1},
			{op: opSub, z: 3, x: 3, y: 2},
			{op: opSetFloat64, z: 1, seed: f64(1.5)},
			{op: opMul, z: 2, x: 2, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(math.Ldexp(1, -1000))},
			{op: opMul, z: 2, x: 2, y: 1},
			{op: opMul, z: 2, x: 0, y: 0},
			{op: opMul, z: 3, x: 2, y: 0},
		}),
		// 0.5 squared 31 times is 2^−2^31, at the lowest exponent but one;
		// times 0.75 or −(1 − 2^−60) it lands on the lowest, where math/big's
		// Float64 reads ±Inf, or ±0 when rounding to 53 bits carries.
		"exponent-floor": concat([]step{{op: opSetFloat64, z: 0, seed: f64(0.5)}}, squares[:31], []step{
			{op: opSetFloat64, z: 1, seed: f64(0.75)},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(-1 + math.Ldexp(1, -30))},
			{op: opSetFloat64, z: 3, seed: f64(1 + math.Ldexp(1, -30))},
			{op: opMul, z: 1, x: 1, y: 3},
			{op: opMul, z: 2, x: 0, y: 1},
			{op: opSetFloat64, z: 1, seed: f64(1 - math.Ldexp(1, -53))},
			{op: opMul, z: 3, x: 0, y: 1},
			{op: opMul, z: 3, x: 2, y: 1},
		}),
		"nan": {
			{op: opSetFloat64, z: 0, seed: f64(math.NaN())},
			{op: opSetFloat64, z: 1, seed: f64(math.Inf(-1))},
			{op: opSetFloat64, z: 2, seed: f64(math.Inf(1))},
			{op: opAdd, z: 3, x: 1, y: 2},
			{op: opSub, z: 3, x: 1, y: 1},
			{op: opAdd, z: 3, x: 1, y: 1},
			{op: opMul, z: 3, x: 1, y: 0},
			{op: opFMA, z: 3, x: 1, y: 2, w: 2},
			{op: opDiv, z: 3, x: 1, y: 2},
			{op: opSqrt, z: 3, x: 2},
			{op: opSetInt64, z: 0, seed: 7},
			{op: opDiv, z: 3, x: 0, y: 1},
		},
	}
}

// seeds are operands for the random chains.
var seeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 3, 0.1, 1.0 / 3, -2.5, 1e300, -1e-300, 6.02e23,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Ldexp(1, -1022), math.Ldexp(1, -1060),
	1 + math.Ldexp(1, -52), math.Ldexp(1, 63), math.Ldexp(1, 64), 0.5, 2,
}

// randomSteps draws a chain: mostly arithmetic on the registers, with
// operands reseeded from seeds, random float64 bits or int64 values.
func randomSteps(rng *rand.Rand, n int) []step {
	steps := make([]step, n)
	for i := range steps {
		s := step{
			op: byte(rng.Intn(nops)),
			z:  byte(rng.Intn(nreg)), x: byte(rng.Intn(nreg)),
			y: byte(rng.Intn(nreg)), w: byte(rng.Intn(nreg)),
			alt: rng.Intn(8) == 0,
		}
		switch s.op {
		case opSetFloat64:
			if rng.Intn(2) == 0 {
				s.seed = f64(seeds[rng.Intn(len(seeds))])
			} else {
				s.seed = rng.Uint64()
			}
		case opSetInt64:
			s.seed = rng.Uint64() >> rng.Intn(64)
		}
		steps[i] = s
	}
	return steps
}

// diffPrecisions are the precisions every differential run covers; the
// test adds random draws from [64, 4096].
var diffPrecisions = []uint{64, 65, 100, 128, 256, 512, 4096}

// TestDifferential compares every operation, after every step of scripted
// and random chains, with math/big.Float at the same precision under
// ToNearestEven: value, sign bit, Cmp, Float64 and Int64.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	precs := append([]uint(nil), diffPrecisions...)
	for range 8 {
		precs = append(precs, 64+uint(rng.Intn(4033)))
	}
	chains := 60
	if testing.Short() {
		chains = 10
	}
	for _, p := range precs {
		alt := precs[rng.Intn(len(precs))]
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			for name, steps := range scripted(p) {
				newMachine(t, p, alt).run(steps)
				if t.Failed() {
					t.Fatalf("scripted chain %s", name)
				}
			}
			for range chains {
				newMachine(t, p, alt).run(randomSteps(rng, 40))
			}
		})
	}
}

// TestScriptedReachesEdges checks that the scripted chains reach what they
// are named for, so the differential test cannot pass vacuously.
func TestScriptedReachesEdges(t *testing.T) {
	c := New(256)
	var one, tie, tie3, z Float
	c.SetFloat64(&one, 1)
	c.SetFloat64(&tie, math.Ldexp(1, -256))
	c.SetFloat64(&tie3, math.Ldexp(3, -256))
	if c.Add(&z, &one, &tie); z.Cmp(&one) != 0 {
		t.Error("1 + 2^−256 must tie to even 1")
	}
	if c.Add(&z, &one, &tie3); z.Cmp(&one) <= 0 {
		t.Error("1 + 3·2^−256 must tie up")
	}
	m := newMachine(t, 256, 64)
	m.run(scripted(256)["exponent-max"][:35])
	if form, _, _, _ := m.got[0].Parts(); form != Inf {
		t.Error("repeated squaring must overflow the exponent to Inf")
	}
	m = newMachine(t, 256, 64)
	m.run(scripted(256)["exponent-min"][:35])
	if m.got[0].Sign() != 0 {
		t.Error("repeated squaring of 0.75 must underflow to 0")
	}
	m = newMachine(t, 256, 64)
	m.run(scripted(256)["exponent-floor"][:38])
	if f := m.got[2].Float64(); f != 0 || !math.Signbit(f) {
		t.Errorf("−(1 − 2^−60)·2^−2^31 reads %v, want math/big's −0", f)
	}
	var sub Float
	c.SetFloat64(&sub, math.SmallestNonzeroFloat64)
	c.Mul(&z, &sub, &one)
	c.SetFloat64(&tie, 0.75)
	if c.Mul(&z, &sub, &tie); z.Float64() != math.SmallestNonzeroFloat64 {
		t.Errorf("0.75 of the smallest subnormal rounds to %v", z.Float64())
	}
}

func FuzzFloat(f *testing.F) {
	for _, p := range diffPrecisions {
		for _, steps := range scripted(p) {
			f.Add(program(p, 128, steps...))
		}
	}
	rng := rand.New(rand.NewSource(2))
	f.Add(program(256, 65, randomSteps(rng, 30)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		prec, alt, steps := decode(b)
		if len(steps) == 0 || len(steps) > 200 {
			return
		}
		newMachine(t, prec, alt).run(steps)
	})
}

// TestWordsReused pins the warm path: results are written into the
// destination's existing words.
func TestWordsReused(t *testing.T) {
	c := New(256)
	var x, y, z Float
	c.SetFloat64(&x, math.Pi)
	c.SetFloat64(&y, math.E)
	c.Mul(&z, &x, &y)
	if n := testing.AllocsPerRun(100, func() {
		c.Add(&z, &z, &x)
		c.Mul(&z, &z, &y)
		c.Sub(&z, &x, &z)
		c.Set(&x, &z)
		_ = z.Float64()
	}); n != 0 {
		t.Errorf("warm ops allocate %v/run, want 0", n)
	}
}

// TestDivKnuth checks algorithm D against math/big's integer division on
// words drawn mostly from the patterns that make its quotient guess too
// large and need the add-back step.
func TestDivKnuth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	patterns := []uint64{0, 1, 1 << 63, 1<<63 - 1, ^uint64(0), ^uint64(0) - 1, 1<<32 - 1, 1 << 32}
	word := func() uint64 {
		if rng.Intn(4) == 0 {
			return rng.Uint64()
		}
		return patterns[rng.Intn(len(patterns))]
	}
	toInt := func(ws []uint64) *big.Int {
		z := new(big.Int)
		for i := len(ws) - 1; i >= 0; i-- {
			z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(ws[i]))
		}
		return z
	}
	for trial := 0; trial < 200000; trial++ {
		nv := 2 + rng.Intn(4)
		v := make([]uint64, nv)
		for i := range v {
			v[i] = word()
		}
		v[nv-1] |= 1 << 63
		u := make([]uint64, nv+1+rng.Intn(4))
		for i := range u[:len(u)-1] {
			u[i] = word()
		}
		wantQ, wantR := new(big.Int).QuoRem(toInt(u), toInt(v), new(big.Int))
		q, tmp := make([]uint64, len(u)-nv), make([]uint64, nv+1)
		divKnuth(q, u, v, tmp)
		if toInt(q).Cmp(wantQ) != 0 || toInt(u[:nv]).Cmp(wantR) != 0 || nonzero(u[nv:]) {
			t.Fatalf("divKnuth(%#x / %#x) = %#x rem %#x, want %#x rem %#x", u, v, q, u, wantQ, wantR)
		}
	}
}

// TestSparseOperands drives add, sub, mul and div with operands of a few
// set bits at exponents a word, a precision or a frame apart: the shapes
// whose results land on or next to a tie, so that one sticky bit decides
// the rounding, which float64-seeded chains seldom reach.
func TestSparseOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	precs := append([]uint{66, 127, 192, 200}, diffPrecisions...)
	for _, p := range precs {
		c := New(p)
		n := (int(p) + 63) / 64
		// sparse returns a Float with its top bit and up to three others
		// set within p bits, and the same value built by math/big.
		sparse := func(exp int32) (*Float, *big.Float) {
			mant := make([]uint64, n)
			ref := new(big.Float).SetPrec(0)
			set := func(pos int) { // pos bits below the top
				if w, b := (64*n-1-pos)/64, uint((64*n-1-pos)%64); mant[w]>>b&1 == 0 {
					mant[w] |= 1 << b
					bit := new(big.Float).SetMantExp(big.NewFloat(0.5), -pos)
					ref.SetPrec(uint(64*n+8)).Add(ref, bit)
				}
			}
			set(0)
			for range rng.Intn(4) {
				switch rng.Intn(3) {
				case 0:
					set(int(p) - 1 - rng.Intn(3)) // at the last bits
				case 1:
					set(1 + rng.Intn(3))
				default:
					set(rng.Intn(int(p)))
				}
			}
			if rng.Intn(6) == 0 { // a run of ones down to the last bit
				for pos := rng.Intn(int(p)) * rng.Intn(2); pos < int(p); pos++ {
					set(pos)
				}
			}
			z := new(Float)
			z.SetParts(Finite, rng.Intn(2) == 0, exp, mant)
			if z.neg {
				ref.Neg(ref)
			}
			return z, ref.SetMantExp(ref, int(exp))
		}
		dists := []int{0, 1, 2, 63, 64, 65, int(p) - 1, int(p), int(p) + 1, int(p) + 2,
			64*n - 1, 64 * n, 64*n + 1, 64*n + 63, 64*n + 64, 64*n + 65, 2 * int(p), 3 * int(p)}
		// Exponents near the int32 bounds, where a carry overflows.
		bases := []int64{0, 0, big.MaxExp, big.MaxExp - 1, big.MinExp + 3*int64(p)}
		var got Float
		want := new(big.Float)
		for range 4000 {
			d := dists[rng.Intn(len(dists))]
			base := bases[rng.Intn(len(bases))]
			x, wx := sparse(int32(base))
			y, wy := sparse(int32(base - int64(d)))
			if rng.Intn(2) == 0 {
				x, y, wx, wy = y, x, wy, wx
			}
			for op, name := range []string{"Add", "Sub", "Mul", "Div"} {
				want.SetPrec(p).SetMode(big.ToNearestEven)
				switch op {
				case 0:
					c.Add(&got, x, y)
					want.Add(wx, wy)
				case 1:
					c.Sub(&got, x, y)
					want.Sub(wx, wy)
				case 2:
					c.Mul(&got, x, y)
					want.Mul(wx, wy)
				case 3:
					c.Div(&got, x, y)
					want.Quo(wx, wy)
				}
				if g := c.Big(new(big.Float), &got); g.Cmp(want) != 0 || g.Signbit() != want.Signbit() {
					t.Fatalf("%d bits: %s(%s, %s) = %s, math/big %s", p, name,
						wx.Text('p', 0), wy.Text('p', 0), g.Text('p', 0), want.Text('p', 0))
				}
			}
		}
	}
}
