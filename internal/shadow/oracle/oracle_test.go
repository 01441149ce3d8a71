package oracle_test

import (
	"math"
	"math/big"
	"testing"

	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/posit"
	"positdebug/internal/shadow/oracle"
)

// mustNew builds an oracle or fails the test.
func mustNew(t *testing.T, kind oracle.Kind, prec uint) oracle.Oracle {
	t.Helper()
	o, err := oracle.New(kind, prec)
	if err != nil {
		t.Fatalf("New(%s): %v", kind, err)
	}
	return o
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want oracle.Kind
		ok   bool
	}{
		{"", oracle.BigFP, true},
		{"bigfp", oracle.BigFP, true},
		{"dd", oracle.DD, true},
		{"residue", oracle.Residue, true},
		{"mpfr", "", false},
	} {
		got, err := oracle.Parse(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("Parse(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestNominalFootprint(t *testing.T) {
	for _, tc := range []struct {
		kind  oracle.Kind
		prec  uint
		bytes int64
	}{
		{oracle.BigFP, 256, 128},
		{oracle.DD, 106, 16},
		{oracle.Residue, 53, 8},
	} {
		o := mustNew(t, tc.kind, 0)
		if got := o.Precision(); got != tc.prec {
			t.Errorf("%s Precision = %d, want %d", tc.kind, got, tc.prec)
		}
		if got := o.EntryBytes(); got != tc.bytes {
			t.Errorf("%s EntryBytes = %d, want %d", tc.kind, got, tc.bytes)
		}
		if got := oracle.NominalPrecision(tc.kind, 0); got != tc.prec {
			t.Errorf("NominalPrecision(%s, 0) = %d, want %d", tc.kind, got, tc.prec)
		}
	}
	if got := oracle.NominalPrecision(oracle.BigFP, 128); got != 128 {
		t.Errorf("NominalPrecision(bigfp, 128) = %d, want 128", got)
	}
}

// TestDDMatchesBigFPExhaustiveP8 drives every ⟨8,0⟩ operand pair — all
// 256×256 bit patterns, NaR and zero included — through add, sub, mul and
// div on the dd and bigfp-256 oracles in lockstep. For each pair it checks
// the observable surface the shadow runtime consumes: the float64
// rounding, sign, three-way comparison against the other operand, the
// undefined flag from Div, and the ULP distance against the program's own
// ⟨8,0⟩ result. 106 double-double bits dwarf any single-op ⟨8,0⟩ result,
// so every disagreement is a bug, not a precision artifact.
func TestDDMatchesBigFPExhaustiveP8(t *testing.T) {
	cfg := posit.Config8
	dd := mustNew(t, oracle.DD, 0)
	bf := mustNew(t, oracle.BigFP, 256)

	// Pre-decode the 254 finite, non-NaR ⟨8,0⟩ values (0 is finite;
	// NaR = 0x80 is skipped — the runtime never feeds NaR operands to
	// oracle arithmetic, it short-circuits them to undefined first).
	type opnd struct {
		bits uint64
		f    float64
	}
	var vals []opnd
	for b := 0; b < 256; b++ {
		pb := posit.Bits(b)
		if cfg.IsNaR(pb) {
			continue
		}
		vals = append(vals, opnd{uint64(b), interp.ToFloat64(ir.P8, uint64(b))})
	}

	type binop struct {
		name string
		prog func(a, b posit.Bits) posit.Bits
		dd   func(z, x, y *oracle.Value) bool
		bf   func(z, x, y *oracle.Value) bool
	}
	wrap := func(f func(z, x, y *oracle.Value)) func(z, x, y *oracle.Value) bool {
		return func(z, x, y *oracle.Value) bool { f(z, x, y); return false }
	}
	ops := []binop{
		{"add", cfg.Add, wrap(dd.Add), wrap(bf.Add)},
		{"sub", cfg.Sub, wrap(dd.Sub), wrap(bf.Sub)},
		{"mul", cfg.Mul, wrap(dd.Mul), wrap(bf.Mul)},
		{"div", cfg.Div, dd.Div, bf.Div},
	}

	var xd, yd, zd, xb, yb, zb oracle.Value
	for _, op := range ops {
		for _, a := range vals {
			dd.SetFloat64(&xd, a.f)
			bf.SetFloat64(&xb, a.f)
			for _, b := range vals {
				dd.SetFloat64(&yd, b.f)
				bf.SetFloat64(&yb, b.f)

				undefD := op.dd(&zd, &xd, &yd)
				undefB := op.bf(&zb, &xb, &yb)
				if undefD != undefB {
					t.Fatalf("%s(%#02x, %#02x): dd undefined=%v, bigfp undefined=%v",
						op.name, a.bits, b.bits, undefD, undefB)
				}
				if undefD {
					continue
				}
				fD, fB := dd.Float64(&zd), bf.Float64(&zb)
				if fD != fB && !(math.IsNaN(fD) && math.IsNaN(fB)) {
					t.Fatalf("%s(%v, %v): dd rounds to %g, bigfp to %g",
						op.name, a.f, b.f, fD, fB)
				}
				if sD, sB := dd.Sign(&zd), bf.Sign(&zb); sD != sB {
					t.Fatalf("%s(%v, %v): dd sign %d, bigfp sign %d",
						op.name, a.f, b.f, sD, sB)
				}
				computed := interp.ToFloat64(ir.P8, uint64(op.prog(posit.Bits(a.bits), posit.Bits(b.bits))))
				if math.IsNaN(computed) {
					continue // program result saturated to NaR (e.g. x/0)
				}
				uD := dd.Ulps(computed, &zd)
				uB := bf.Ulps(computed, &zb)
				if uD != uB {
					t.Fatalf("%s(%v, %v): dd ulps %d, bigfp ulps %d (computed %g)",
						op.name, a.f, b.f, uD, uB, computed)
				}
			}
		}
	}

	// Cmp agreement over every finite pair — the branch-flip oracle.
	for _, a := range vals {
		dd.SetFloat64(&xd, a.f)
		bf.SetFloat64(&xb, a.f)
		for _, b := range vals {
			dd.SetFloat64(&yd, b.f)
			bf.SetFloat64(&yb, b.f)
			if cD, cB := dd.Cmp(&xd, &yd), bf.Cmp(&xb, &yb); cD != cB {
				t.Fatalf("Cmp(%v, %v): dd %d, bigfp %d", a.f, b.f, cD, cB)
			}
		}
	}
}

// TestDDAlgebra exercises the dd kernels on values chosen to need the low
// word: sums that cancel catastrophically in one double, products whose
// error term carries half the bits, and the Newton-corrected div/sqrt.
func TestDDAlgebra(t *testing.T) {
	dd := mustNew(t, oracle.DD, 0)
	var x, y, z oracle.Value

	// (1 + 2^-60) - 1 = 2^-60 exactly: pure-double arithmetic would
	// return 2^-60 only because 1+2^-60 rounds to 1... dd must keep it.
	dd.SetFloat64(&x, 1)
	dd.SetFloat64(&y, math.Ldexp(1, -60))
	dd.Add(&z, &x, &y)
	dd.Sub(&z, &z, &x)
	if got := dd.Float64(&z); got != math.Ldexp(1, -60) {
		t.Errorf("(1+2^-60)-1 = %g, want 2^-60", got)
	}

	// (2^30+1)^2 = 2^60 + 2^61/2^30... : the cross term 2·2^30 and the +1
	// land entirely in the low word.
	dd.SetFloat64(&x, math.Ldexp(1, 30)+1)
	dd.Mul(&z, &x, &x)
	want := new(big.Float).SetPrec(200).SetFloat64(math.Ldexp(1, 30) + 1)
	want.Mul(want, want)
	var got big.Float
	dd.Big(&got, &z)
	if got.Cmp(want) != 0 {
		t.Errorf("(2^30+1)^2: dd holds %s, want %s", got.Text('g', 30), want.Text('g', 30))
	}

	// Division round-trips: (x/y)*y ≈ x to well past double precision.
	dd.SetFloat64(&x, 1)
	dd.SetFloat64(&y, 3)
	if undef := dd.Div(&z, &x, &y); undef {
		t.Fatal("1/3 reported undefined")
	}
	dd.Mul(&z, &z, &y)
	dd.Sub(&z, &z, &x)
	var diff big.Float
	dd.Big(&diff, &z)
	f, _ := diff.Float64()
	if math.Abs(f) > math.Ldexp(1, -100) {
		t.Errorf("(1/3)*3 - 1 = %g, want |err| <= 2^-100", f)
	}

	// Sqrt: sqrt(2)^2 - 2 within the dd window.
	dd.SetFloat64(&x, 2)
	if undef := dd.Sqrt(&z, &x); undef {
		t.Fatal("sqrt(2) reported undefined")
	}
	dd.Mul(&z, &z, &z)
	dd.Sub(&z, &z, &x)
	dd.Big(&diff, &z)
	f, _ = diff.Float64()
	if math.Abs(f) > math.Ldexp(1, -100) {
		t.Errorf("sqrt(2)^2 - 2 = %g, want |err| <= 2^-100", f)
	}

	// Undefined guards mirror bigfp: div by zero and negative sqrt.
	dd.SetFloat64(&y, 0)
	if undef := dd.Div(&z, &x, &y); !undef {
		t.Error("x/0 not reported undefined")
	}
	dd.SetFloat64(&x, -1)
	if undef := dd.Sqrt(&z, &x); !undef {
		t.Error("sqrt(-1) not reported undefined")
	}
}

// TestDDInt64Edges pins the truncation semantics at the boundaries the
// wrong-cast oracle cares about: values a hair under an integer whose Hi
// alone rounds across it, and saturation at the int64 range.
func TestDDInt64Edges(t *testing.T) {
	dd := mustNew(t, oracle.DD, 0)
	var x, y, z oracle.Value

	// 2^60 - 0.5: Hi rounds to 2^60 exactly, Lo = -0.5; truncation toward
	// zero must yield 2^60 - 1, not 2^60.
	dd.SetFloat64(&x, math.Ldexp(1, 60))
	dd.SetFloat64(&y, 0.5)
	dd.Sub(&z, &x, &y)
	if got, want := dd.Int64(&z), int64(1)<<60-1; got != want {
		t.Errorf("trunc(2^60 - 0.5) = %d, want %d", got, want)
	}
	// The mirrored negative case truncates toward zero the other way.
	dd.Neg(&z, &z)
	if got, want := dd.Int64(&z), -(int64(1)<<60 - 1); got != want {
		t.Errorf("trunc(-(2^60 - 0.5)) = %d, want %d", got, want)
	}

	// SetInt64 is exact for every int64, including ones float64 cannot
	// represent alone.
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, (1 << 62) + 1, -((1 << 62) + 3)} {
		dd.SetInt64(&z, v)
		if got := dd.Int64(&z); got != v {
			t.Errorf("Int64(SetInt64(%d)) = %d", v, got)
		}
	}

	// Saturation beyond the range.
	dd.SetFloat64(&x, math.Ldexp(1, 70))
	if got := dd.Int64(&x); got != math.MaxInt64 {
		t.Errorf("trunc(2^70) = %d, want MaxInt64", got)
	}
	dd.Neg(&x, &x)
	if got := dd.Int64(&x); got != math.MinInt64 {
		t.Errorf("trunc(-2^70) = %d, want MinInt64", got)
	}
}

// TestQuireBridgeRoundTrip checks Big/SetBig on every oracle: the quire
// bridge must reconstruct dd pairs exactly and round back without losing
// more than the oracle's own precision.
func TestQuireBridgeRoundTrip(t *testing.T) {
	for _, kind := range oracle.Kinds() {
		o := mustNew(t, kind, 0)
		var v, back oracle.Value
		var big1 big.Float
		o.SetFloat64(&v, 1.5)
		var lo oracle.Value
		o.SetFloat64(&lo, math.Ldexp(1, -70))
		o.Add(&v, &v, &lo) // a value needing > 53 bits for dd/bigfp
		o.Big(&big1, &v)
		o.SetBig(&back, &big1)
		if o.Cmp(&v, &back) != 0 {
			t.Errorf("%s: Big/SetBig round-trip moved the value (%s -> %s)",
				kind, o.Format(&v), o.Format(&back))
		}
	}
}

// TestWarmOracleAllocs pins the steady-state allocation count of the dd
// and residue arithmetic at zero — the property that makes them safe
// degradation targets under memory pressure. bigfp is exempt: big.Float
// Div/Sqrt allocate internal temporaries by design, which is half the
// reason the cheaper tiers exist.
func TestWarmOracleAllocs(t *testing.T) {
	for _, kind := range []oracle.Kind{oracle.DD, oracle.Residue} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			o := mustNew(t, kind, 0)
			var x, y, z, w oracle.Value
			o.SetFloat64(&x, 1.375)
			o.SetFloat64(&y, 0.8125)
			o.Mul(&z, &x, &y)
			o.Add(&z, &z, &x)
			o.Div(&w, &z, &y)
			o.Sqrt(&w, &z)
			o.FMA(&w, &x, &y, &z)
			_ = o.Ulps(1.1171875, &z)
			n := testing.AllocsPerRun(100, func() {
				o.Mul(&z, &x, &y)
				o.Add(&z, &z, &x)
				o.Sub(&z, &z, &x)
				o.Div(&w, &z, &y)
				o.Sqrt(&w, &z)
				o.FMA(&w, &x, &y, &z)
				o.Neg(&w, &w)
				o.Abs(&w, &w)
				o.Copy(&w, &z)
				_ = o.Cmp(&z, &w)
				_ = o.Sign(&z)
				_ = o.Float64(&z)
				_ = o.Int64(&z)
				_ = o.Ulps(1.1171875, &z)
			})
			if n != 0 {
				t.Errorf("%s warm arithmetic allocates %v/op, want 0", kind, n)
			}
		})
	}
}
