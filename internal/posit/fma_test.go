package posit

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestFMAOracle validates the fused multiply-add against the exact
// rational oracle across configurations (exhaustive on a dense sample of
// ⟨8,es⟩ triples, random for wider formats).
func TestFMAOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		rng := rand.New(rand.NewSource(int64(c.N)*31 + int64(c.ES)))
		iters := 60000
		for i := 0; i < iters; i++ {
			a := Bits(rng.Uint64() & c.Mask())
			b := Bits(rng.Uint64() & c.Mask())
			d := Bits(rng.Uint64() & c.Mask())
			got := c.FMA(a, b, d)
			if c.IsNaR(a) || c.IsNaR(b) || c.IsNaR(d) {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ FMA with NaR must be NaR", c.N, c.ES)
				}
				continue
			}
			x := new(big.Rat).Mul(ratValue(c, a), ratValue(c, b))
			x.Add(x, ratValue(c, d))
			checkNearest(t, c, x, got,
				"fma "+c.BitString(a)+"*"+c.BitString(b)+"+"+c.BitString(d))
		}
	}
}

// TestFMACancellation exercises the catastrophic-cancellation corner the
// fused operation exists to avoid: a·b ≈ −c with the true result far
// below either magnitude must still round correctly.
func TestFMACancellation(t *testing.T) {
	c := Config32
	for _, tc := range []struct{ a, b, d float64 }{
		{3, 1.0 / 3, -1},               // a·b just off −d
		{1 << 20, 1 << 20, -(1 << 40)}, // exact cancellation to 0
		{1.0000001, 1.0000001, -1},
		{1e10, 1e-10, -1},
	} {
		a := c.FromFloat64(tc.a)
		b := c.FromFloat64(tc.b)
		d := c.FromFloat64(tc.d)
		got := c.FMA(a, b, d)
		x := new(big.Rat).Mul(ratValue(c, a), ratValue(c, b))
		x.Add(x, ratValue(c, d))
		checkNearest(t, c, x, got, "fma cancellation")
	}
}

// TestFMASingleRounding: fma(a,b,c) must beat mul-then-add when the
// product's low bits matter.
func TestFMASingleRounding(t *testing.T) {
	c := Config32
	a := c.FromFloat64(1 + 1.0/(1<<20))
	b := c.FromFloat64(1 - 1.0/(1<<20))
	d := c.Neg(c.One())
	fused := c.FMA(a, b, d)
	split := c.Add(c.Mul(a, b), d)
	// Exact: a·b−1 = −2^-40; the two-rounding version loses it entirely.
	if fused == 0 {
		t.Fatal("fused result must retain the −2^-40 residue")
	}
	if split != 0 {
		t.Skip("split result kept the residue at this precision")
	}
	if c.ToFloat64(fused) >= 0 {
		t.Fatalf("fma = %v, want negative residue", c.Format(fused))
	}
}

// TestFMAZeroCases: the a=0/b=0 shortcut must return the addend.
func TestFMAZeroCases(t *testing.T) {
	c := Config32
	x := c.FromFloat64(7.5)
	if c.FMA(0, x, x) != x || c.FMA(x, 0, x) != x {
		t.Fatal("0·x + c must be c")
	}
	if c.FMA(x, x, 0) != c.Mul(x, x) {
		t.Fatal("x·x + 0 must equal x·x")
	}
}

func TestPosit32FMAWrapper(t *testing.T) {
	a := P32FromFloat64(2)
	b := P32FromFloat64(3)
	d := P32FromFloat64(0.5)
	if got := a.FMA(b, d).Float64(); got != 6.5 {
		t.Fatalf("2·3+0.5 = %v", got)
	}
}

func BenchmarkP32FMA(b *testing.B) {
	x := Config32.FromFloat64(1.87654321)
	y := Config32.FromFloat64(3.14159)
	z := Config32.FromFloat64(-5.8979)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Config32.FMA(x, y, z)
	}
}
