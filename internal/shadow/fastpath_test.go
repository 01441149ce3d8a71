package shadow

import (
	"fmt"
	"math"
	"testing"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
)

// xorshift is a tiny deterministic PRNG so the property tests sample the
// same patterns on every run and every platform.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// valueExp, cancelledBits and fracBitsLost are the detection pass's
// quantities derived straight from the raw bits, decoding every value
// again at every use: the references checkPval and
// TestFastCheckOpByteIdentical hold the memoized decodes to.

// valueExp returns the binary exponent of a program value and whether it is
// zero (or NaR/NaN, treated as zero for cancellation purposes).
func valueExp(typ ir.Type, bits uint64) (int, bool) {
	f := interp.ToFloat64(typ, bits)
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, true
	}
	return math.Ilogb(f), false
}

// cancelledBits computes cbits = max(exp(a), exp(b)) − exp(result): the
// number of leading bits the additive operation cancelled. Zero results
// with nonzero operands cancel everything (returns a large count).
func cancelledBits(typ ir.Type, aBits, bBits, resBits uint64) int {
	ea, aZero := valueExp(typ, aBits)
	eb, bZero := valueExp(typ, bBits)
	er, rZero := valueExp(typ, resBits)
	if aZero || bZero {
		return 0 // nothing to cancel
	}
	top := ea
	if eb > top {
		top = eb
	}
	if rZero {
		return 64
	}
	return top - er
}

// fracBitsLost computes how many fraction bits the result lost relative to
// its best operand when its regime grew (tapered-precision loss).
func fracBitsLost(cfg posit.Config, resBits uint64, ta, tb *TempMeta) int {
	pr := posit.Bits(resBits)
	if pr == 0 || cfg.IsNaR(pr) {
		return 0
	}
	dr := cfg.Decode(cfg.Abs(pr))
	bestFrac := -1
	maxReg := 0
	for _, op := range []*TempMeta{ta, tb} {
		if op == nil {
			continue
		}
		pb := posit.Bits(op.Prog)
		if pb == 0 || cfg.IsNaR(pb) {
			continue
		}
		od := cfg.Decode(cfg.Abs(pb))
		if od.FracBits > bestFrac {
			bestFrac = od.FracBits
		}
		if od.RegimeBits > maxReg {
			maxReg = od.RegimeBits
		}
	}
	if bestFrac < 0 || dr.RegimeBits <= maxReg {
		return 0
	}
	return bestFrac - dr.FracBits
}

// checkPval asserts every pval accessor against the slow derivation it
// replaces: ToFloat64 for the conversion, math.Ilogb for the cancellation
// exponent, and Decode and Decode(Abs) for the precision-loss geometry.
// set starts from a pval full of garbage, so a word it fails to overwrite
// shows. For posits it also holds the bit-level saturation test to
// IsMaxMag || IsMinMag.
func checkPval(t *testing.T, typ ir.Type, bits uint64) {
	t.Helper()
	pv := pval{f: 1, exp: -1, meta: ^uint32(0)}
	pv.set(typ, bits)
	slowF := interp.ToFloat64(typ, bits)
	if math.Float64bits(pv.f) != math.Float64bits(slowF) {
		t.Fatalf("%v %#x: f = %v (%#x), ToFloat64 = %v (%#x)",
			typ, bits, pv.f, math.Float64bits(pv.f), slowF, math.Float64bits(slowF))
	}
	if !pv.ok() || pv.typ() != typ || !pv.is(bits, typ, bits) {
		t.Fatalf("%v %#x: ok = %v, typ = %v, is = %v", typ, bits, pv.ok(), pv.typ(), pv.is(bits, typ, bits))
	}
	if other := typ%ir.P32 + 1; pv.is(bits, other, bits) || pv.is(bits+1, typ, bits) {
		t.Fatalf("%v %#x: the memo also answers for %v or for other bits", typ, bits, other)
	}
	undef := math.IsNaN(slowF) || math.IsInf(slowF, 0)
	if pv.undef() != undef {
		t.Fatalf("%v %#x: undef = %v, want %v", typ, bits, pv.undef(), undef)
	}
	if zero := slowF == 0 || undef; pv.zero() != zero {
		t.Fatalf("%v %#x: zero = %v, want %v", typ, bits, pv.zero(), zero)
	}
	wantExp := 0
	if !pv.zero() {
		wantExp = math.Ilogb(slowF)
	}
	if int(pv.exp) != wantExp {
		t.Fatalf("%v %#x: exp = %d, want %d", typ, bits, pv.exp, wantExp)
	}
	var want posit.Decoded // no posit geometry: every field zero
	if typ.IsPosit() {
		cfg := typ.PositConfig()
		pb := posit.Bits(bits)
		if pb != 0 && !cfg.IsNaR(pb) {
			want = cfg.Decode(pb)
			abs := cfg.Decode(cfg.Abs(pb))
			if want.RegimeBits != abs.RegimeBits || want.FracBits != abs.FracBits {
				t.Fatalf("%v %#x: Decode and Decode(Abs) disagree on the geometry", typ, bits)
			}
		}
		if got, slow := saturated(typ, bits), cfg.IsMaxMag(pb) || cfg.IsMinMag(pb); got != slow {
			t.Fatalf("%v %#x: saturated = %v, IsMaxMag || IsMinMag = %v", typ, bits, got, slow)
		}
	}
	if pv.rbits() != want.RegimeBits || pv.fbits() != want.FracBits {
		t.Fatalf("%v %#x: (rbits, fbits) = (%d, %d), want (%d, %d)",
			typ, bits, pv.rbits(), pv.fbits(), want.RegimeBits, want.FracBits)
	}
}

// TestPvalMatchesSlowDerivations checks the single-decode view against the
// raw-decode references: exhaustively for ⟨8,0⟩ and ⟨16,1⟩, and over
// special and random patterns for ⟨32,2⟩, f32, f64 and i64 (zeros,
// infinities, NaNs, subnormals and the smallest normals among the IEEE
// specials).
func TestPvalMatchesSlowDerivations(t *testing.T) {
	for b := uint64(0); b < 1<<8; b++ {
		checkPval(t, ir.P8, b)
	}
	for b := uint64(0); b < 1<<16; b++ {
		checkPval(t, ir.P16, b)
	}
	specials := map[ir.Type][]uint64{
		ir.P32: {
			0, 0x80000000, // zero, NaR
			1, 0xffffffff, // ±minpos
			0x7fffffff, 0x80000001, // ±maxpos
			2, 0x7ffffffe, 0xc0000001, // next to them
			0x40000000, 0xc0000000, // ±1
		},
		ir.F64: {
			0, 1 << 63, // ±0
			math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
			math.Float64bits(math.NaN()), 0x7ff0000000000001, 0xfff8000000000000,
			1, 0x000fffffffffffff, 0x8000000000000001, 0x800fffffffffffff, // subnormals
			0x0010000000000000, 0x8010000000000000, // ±smallest normal
			math.Float64bits(0.1), math.Float64bits(-3), math.Float64bits(math.MaxFloat64),
		},
		ir.F32: {
			0, 0x80000000, // ±0
			0x7f800000, 0xff800000, 0x7fc00000, 0x7f800001, 0xffc00000, // ±Inf, NaNs
			1, 0x007fffff, 0x80000001, 0x807fffff, // subnormals
			0x00800000, 0x80800000, // ±smallest normal
			0x3f800000, 0xc0400000, 0x7f7fffff, // 1, −3, max
		},
		ir.I64: {0, 1, 1 << 63, ^uint64(0), 1<<53 + 1},
	}
	for typ, bs := range specials {
		for _, b := range bs {
			checkPval(t, typ, b)
		}
	}
	rng := xorshift(0x9e3779b97f4a7c15)
	for i := 0; i < 200000; i++ {
		b := rng.next()
		checkPval(t, ir.P32, b&0xffffffff)
		checkPval(t, ir.F32, b&0xffffffff)
		checkPval(t, ir.F64, b)
		checkPval(t, ir.I64, b)
		// Subnormals are rare among random bits: clear both exponents.
		checkPval(t, ir.F32, b&0x807fffff)
		checkPval(t, ir.F64, b&0x800fffffffffffff)
	}
}

// TestFastCheckOpByteIdentical drives an adversarial event stream — random
// and special patterns, including NaR results from finite operands,
// saturated results, cancellations and precision loss — through Bin, and
// after every event compares what the detection pass reads from the
// memoized decodes with the raw-decode references: the undefined-result
// test, the cancelled bits and the fraction bits lost. Chained events reuse
// a destination as an operand, so the pass reads a memoized decode it left
// one event earlier. The stream must reach every one of those detections.
func TestFastCheckOpByteIdentical(t *testing.T) {
	for _, typ := range []ir.Type{ir.P16, ir.P32} {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			rt, _ := buildPipeline(t, rootCountSrc, DefaultConfig())
			fn := rt.mod.FuncByName("rootcount")
			var id int32 = -1
			for i := int32(0); int(i) < len(rt.mod.Registry); i++ {
				if rt.mod.Meta(i).Type != ir.Void {
					id = i
					break
				}
			}
			if id < 0 {
				t.Fatal("no instrumented instruction found")
			}
			one := uint64(typ.PositConfig().FromFloat64(1))
			rt.Reset()
			rt.EnterFunc(fn, []uint64{one, one, one})
			cfg := typ.PositConfig()
			// check compares the pass's view of the event that just wrote
			// register d from a and b with the references.
			check := func(d, a, b int32) {
				t.Helper()
				td, ta, tb := rt.temp(d), rt.temp(a), rt.temp(b)
				if err := memoErr(&td.pv, td.pvBits, td.Prog); err != nil {
					t.Fatal(err)
				}
				pd, pa, pb := td.pvalFor(typ), ta.pvalFor(typ), tb.pvalFor(typ)
				f := interp.ToFloat64(typ, td.Prog)
				if undef := math.IsNaN(f) || math.IsInf(f, 0); pd.undef() != undef {
					t.Fatalf("%v %#x: undef = %v, want %v", typ, td.Prog, pd.undef(), undef)
				}
				if got, want := cancelled(pa, pb, pd), cancelledBits(typ, ta.Prog, tb.Prog, td.Prog); got != want {
					t.Fatalf("%v %#x − %#x = %#x: cancelled %d, want %d", typ, ta.Prog, tb.Prog, td.Prog, got, want)
				}
				if got, want := fracLost(pd, pa, pb), fracBitsLost(cfg, td.Prog, ta, tb); got != want {
					t.Fatalf("%v (%#x, %#x) → %#x: fraction bits lost %d, want %d", typ, ta.Prog, tb.Prog, td.Prog, got, want)
				}
			}
			rng := xorshift(0x2545f4914f6cdd1d)
			event := func(kind ir.BinKind, aBits, bBits uint64) {
				var res posit.Bits
				switch kind {
				case ir.BinAdd:
					res = cfg.Add(posit.Bits(aBits), posit.Bits(bBits))
				case ir.BinSub:
					res = cfg.Sub(posit.Bits(aBits), posit.Bits(bBits))
				case ir.BinMul:
					res = cfg.Mul(posit.Bits(aBits), posit.Bits(bBits))
				case ir.BinDiv:
					res = cfg.Div(posit.Bits(aBits), posit.Bits(bBits))
				}
				rt.Bin(id, kind, typ, 3, 1, 2, uint64(res), aBits, bBits)
				check(3, 1, 2)
				// Occasionally chain: reuse the destination as an operand
				// so the pass reads its memoized decode.
				if rng.next()%3 == 0 {
					chained := cfg.Add(res, posit.Bits(aBits))
					rt.Bin(id, ir.BinAdd, typ, 4, 3, 1, uint64(chained), uint64(res), aBits)
					check(4, 3, 1)
				}
			}
			mask := uint64(1)<<cfg.N - 1
			special := []uint64{0, uint64(cfg.NaR()), uint64(cfg.MaxPos()),
				uint64(cfg.MinPos()), uint64(cfg.Neg(cfg.MaxPos())), one}
			for i := 0; i < 4000; i++ {
				pick := func() uint64 {
					v := rng.next()
					if v%4 == 0 {
						return special[(v>>8)%uint64(len(special))]
					}
					return v & mask
				}
				aBits, bBits := pick(), pick()
				event(ir.BinKind(rng.next()%4), aBits, bBits)
			}
			// The random draws never pair a division with a zero divisor,
			// so the special cross product supplies NaR from finite
			// operands.
			for kind := ir.BinAdd; kind <= ir.BinDiv; kind++ {
				for _, a := range special {
					for _, b := range special {
						event(kind, a, b)
					}
				}
			}
			sum := rt.Summary()
			for _, k := range []Kind{KindNaR, KindSaturation, KindCancellation, KindPrecisionLoss} {
				if sum.Counts[k] == 0 {
					t.Errorf("the stream reached no %v detection: %v", k, sum.Counts)
				}
			}
		})
	}
}

// memoErr reports a memoized decode a read could serve (ok, and keyed on
// the bits the cell holds) that differs from a fresh decode of its (bits,
// type) key.
func memoErr(pv *pval, pvBits, prog uint64) error {
	if !pv.ok() || pvBits != prog {
		return nil
	}
	got, want := *pv, pval{}
	want.set(pv.typ(), pvBits)
	// f may be NaN: compare it by its bits, the rest by value.
	fg, fw := math.Float64bits(got.f), math.Float64bits(want.f)
	got.f, want.f = 0, 0
	if fg != fw || got != want {
		return fmt.Errorf("memo of %#x as %v is %+v (f %#x), want %+v (f %#x)",
			pvBits, pv.typ(), got, fg, want, fw)
	}
	return nil
}

// MemoChecker is a Runtime that checks the memo invariant after every
// value-producing event: each memoized decode the event left on its
// destination temporary — and, for Load and Store, on the touched
// shadow-memory cell — that a read could serve must equal a fresh decode
// of its key (memoErr). It is exported for TestMemoInvariant, which runs
// the detection suite and the kernels from the workloads package, an
// importer of this one.
type MemoChecker struct {
	*Runtime
	Checked int   // memoized decodes compared
	Err     error // the first violation
}

// check compares one memoized decode a read could serve with a fresh one;
// loc and at name where it sits (a register or a cell address).
func (c *MemoChecker) check(event string, id int32, loc string, at uint64, pv *pval, pvBits, prog uint64) {
	if !pv.ok() || pvBits != prog {
		return
	}
	c.Checked++
	if err := memoErr(pv, pvBits, prog); err != nil && c.Err == nil {
		c.Err = fmt.Errorf("%s %d, %s %#x: %w", event, id, loc, at, err)
	}
}

func (c *MemoChecker) temp(event string, id, reg int32) {
	t := c.Runtime.temp(reg)
	c.check(event, id, "register", uint64(reg), &t.pv, t.pvBits, t.Prog)
}

func (c *MemoChecker) cell(event string, id int32, addr uint32) {
	mm := c.mem.get(addr)
	c.check(event, id, "cell", uint64(addr), &mm.pv, mm.pvBits, mm.Prog)
}

func (c *MemoChecker) Const(id int32, typ ir.Type, dst int32, bits uint64) {
	c.Runtime.Const(id, typ, dst, bits)
	c.temp("Const", id, dst)
}

func (c *MemoChecker) Mov(id int32, typ ir.Type, dst, src int32, bits uint64) {
	c.Runtime.Mov(id, typ, dst, src, bits)
	c.temp("Mov", id, dst)
}

func (c *MemoChecker) Bin(id int32, kind ir.BinKind, typ ir.Type, dst, a, b int32, dstVal, aVal, bVal uint64) {
	c.Runtime.Bin(id, kind, typ, dst, a, b, dstVal, aVal, bVal)
	c.temp("Bin", id, dst)
}

func (c *MemoChecker) Un(id int32, kind ir.UnKind, typ ir.Type, dst, a int32, dstVal, aVal uint64) {
	c.Runtime.Un(id, kind, typ, dst, a, dstVal, aVal)
	c.temp("Un", id, dst)
}

func (c *MemoChecker) Cast(id int32, from, to ir.Type, dst, src int32, dstVal, srcVal uint64) {
	c.Runtime.Cast(id, from, to, dst, src, dstVal, srcVal)
	c.temp("Cast", id, dst)
}

func (c *MemoChecker) Load(id int32, typ ir.Type, dst int32, addr uint32, bits uint64) {
	c.Runtime.Load(id, typ, dst, addr, bits)
	c.temp("Load", id, dst)
	c.cell("Load", id, addr)
}

func (c *MemoChecker) Store(id int32, typ ir.Type, addr uint32, src int32, bits uint64) {
	c.Runtime.Store(id, typ, addr, src, bits)
	c.cell("Store", id, addr)
}

func (c *MemoChecker) PostCall(id int32, typ ir.Type, dst int32, bits uint64) {
	c.Runtime.PostCall(id, typ, dst, bits)
	if dst >= 0 {
		c.temp("PostCall", id, dst)
	}
}

func (c *MemoChecker) FMA(id int32, typ ir.Type, dst, a, b, cc int32, dstVal, aVal, bVal, cVal uint64) {
	c.Runtime.FMA(id, typ, dst, a, b, cc, dstVal, aVal, bVal, cVal)
	c.temp("FMA", id, dst)
}

func (c *MemoChecker) QVal(id int32, typ ir.Type, dst int32, bits uint64) {
	c.Runtime.QVal(id, typ, dst, bits)
	c.temp("QVal", id, dst)
}
