package posit

import (
	"math/big"
	"math/rand"
	"testing"
)

// ratValue decodes a posit pattern to an exact rational using a literal,
// independent transcription of the paper's §2.1 decoding rules (regime run
// counting over the bit string). It is the oracle against which the fast
// codec is validated. Returns nil for NaR.
func ratValue(c Config, p Bits) *big.Rat {
	if p == 0 {
		return new(big.Rat)
	}
	if c.IsNaR(p) {
		return nil
	}
	neg := uint64(p)>>(c.N-1) == 1
	mag := uint64(p)
	if neg {
		mag = (-mag) & c.Mask()
	}
	// Bits of the magnitude, MSB first, skipping the (zero) sign bit.
	var bs []int
	for i := int(c.N) - 2; i >= 0; i-- {
		bs = append(bs, int(mag>>uint(i)&1))
	}
	// Regime: run of identical bits.
	run := 1
	for run < len(bs) && bs[run] == bs[0] {
		run++
	}
	var k int
	if bs[0] == 1 {
		k = run - 1
	} else {
		k = -run
	}
	idx := run
	if idx < len(bs) {
		idx++ // terminating bit
	}
	// Exponent: next up to es bits, zero-extended to es.
	e := 0
	for i := 0; i < int(c.ES); i++ {
		e <<= 1
		if idx < len(bs) {
			e |= bs[idx]
			idx++
		}
	}
	// Fraction: remaining bits.
	f := new(big.Rat).SetInt64(1)
	w := new(big.Rat).SetFrac64(1, 2)
	for ; idx < len(bs); idx++ {
		if bs[idx] == 1 {
			f.Add(f, w)
		}
		w.Mul(w, big.NewRat(1, 2))
	}
	// value = useed^k · 2^e · f, useed = 2^2^es.
	scale := k*(1<<c.ES) + e
	v := new(big.Rat).Set(f)
	v.Mul(v, pow2Rat(scale))
	if neg {
		v.Neg(v)
	}
	return v
}

func pow2Rat(e int) *big.Rat {
	one := big.NewInt(1)
	if e >= 0 {
		return new(big.Rat).SetInt(new(big.Int).Lsh(one, uint(e)))
	}
	return new(big.Rat).SetFrac(one, new(big.Int).Lsh(one, uint(-e)))
}

func absRat(x *big.Rat) *big.Rat { return new(big.Rat).Abs(x) }

// checkNearest verifies that got is the correct posit rounding of the exact
// value x: saturation at the extremes, and local optimality against both
// pattern neighbors elsewhere (sufficient globally because posit patterns
// are monotonic in value). Ties must resolve to the even pattern.
func checkNearest(t *testing.T, c Config, x *big.Rat, got Bits, ctx string) {
	t.Helper()
	if uint64(got) & ^c.Mask() != 0 {
		t.Fatalf("%s: non-canonical pattern %#x", ctx, uint64(got))
	}
	if x.Sign() == 0 {
		if got != 0 {
			t.Fatalf("%s: exact zero rounded to %s", ctx, c.Format(got))
		}
		return
	}
	if c.IsNaR(got) {
		t.Fatalf("%s: finite value %s rounded to NaR", ctx, x.FloatString(30))
		return
	}
	ax := absRat(x)
	maxpos := ratValue(c, c.MaxPos())
	minpos := ratValue(c, c.MinPos())
	if ax.Cmp(maxpos) >= 0 {
		want := c.MaxPos()
		if x.Sign() < 0 {
			want = c.Neg(want)
		}
		if got != want {
			t.Fatalf("%s: |x| ≥ maxpos must saturate; got %s", ctx, c.Format(got))
		}
		return
	}
	if ax.Cmp(minpos) <= 0 {
		want := c.MinPos()
		if x.Sign() < 0 {
			want = c.Neg(want)
		}
		if got != want {
			t.Fatalf("%s: 0 < |x| ≤ minpos must clamp to minpos; got %s", ctx, c.Format(got))
		}
		return
	}
	gv := ratValue(c, got)
	gd := new(big.Rat).Sub(gv, x)
	gd.Abs(gd)
	for _, nb := range []Bits{Bits((uint64(got) - 1) & c.Mask()), Bits((uint64(got) + 1) & c.Mask())} {
		if nb == 0 || c.IsNaR(nb) {
			continue // never round to zero or NaR
		}
		nv := ratValue(c, nb)
		nd := new(big.Rat).Sub(nv, x)
		nd.Abs(nd)
		switch gd.Cmp(nd) {
		case 1:
			t.Fatalf("%s: got %s (pattern %s, dist %s) but neighbor %s (dist %s) is closer to %s",
				ctx, c.Format(got), c.BitString(got), gd.FloatString(30),
				c.Format(nb), nd.FloatString(30), x.FloatString(30))
		case 0:
			if got&1 == 1 {
				t.Fatalf("%s: tie between %s and %s for %s must pick even pattern",
					ctx, c.BitString(got), c.BitString(nb), x.FloatString(30))
			}
		}
	}
}

func allPatterns(c Config) []Bits {
	out := make([]Bits, 0, 1<<c.N)
	for v := uint64(0); v <= c.Mask(); v++ {
		out = append(out, Bits(v))
	}
	return out
}

// finitePairs invokes fn for every pair of patterns of small
// configurations, and for a random sample of pairs of larger ones.
func finitePairs(t *testing.T, c Config, fn func(a, b Bits)) {
	if testing.Short() || c.N > 8 {
		rng := rand.New(rand.NewSource(int64(c.N)*1000 + int64(c.ES)))
		for i := 0; i < 30000; i++ {
			a := Bits(rng.Uint64() & c.Mask())
			b := Bits(rng.Uint64() & c.Mask())
			fn(a, b)
		}
		return
	}
	for _, a := range allPatterns(c) {
		for _, b := range allPatterns(c) {
			fn(a, b)
		}
	}
}

// finiteSingles invokes fn for every pattern of small configurations and a
// sample of patterns of larger ones.
func finiteSingles(t *testing.T, c Config, fn func(a Bits)) {
	if c.N > 16 {
		rng := rand.New(rand.NewSource(int64(c.N)))
		for i := 0; i < 60000; i++ {
			fn(Bits(rng.Uint64() & c.Mask()))
		}
		return
	}
	for _, a := range allPatterns(c) {
		fn(a)
	}
}

// oracleConfigs are the configurations every oracle sweep covers. The
// sweeps (here and TestFMAOracle) share nothing but this read-only list,
// so each runs in parallel with the others.
var oracleConfigs = []Config{
	{N: 8, ES: 0},
	{N: 8, ES: 1},
	{N: 8, ES: 2},
	{N: 9, ES: 1},
	{N: 13, ES: 2},
	{N: 16, ES: 1},
	{N: 32, ES: 2},
}

func TestAddOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		finitePairs(t, c, func(a, b Bits) {
			got := c.Add(a, b)
			if c.IsNaR(a) || c.IsNaR(b) {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ NaR+x must be NaR", c.N, c.ES)
				}
				return
			}
			x := new(big.Rat).Add(ratValue(c, a), ratValue(c, b))
			checkNearest(t, c, x, got, "add "+c.BitString(a)+"+"+c.BitString(b))
		})
	}
}

func TestSubOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		finitePairs(t, c, func(a, b Bits) {
			got := c.Sub(a, b)
			if c.IsNaR(a) || c.IsNaR(b) {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ NaR−x must be NaR", c.N, c.ES)
				}
				return
			}
			x := new(big.Rat).Sub(ratValue(c, a), ratValue(c, b))
			checkNearest(t, c, x, got, "sub "+c.BitString(a)+"-"+c.BitString(b))
		})
	}
}

func TestMulOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		finitePairs(t, c, func(a, b Bits) {
			got := c.Mul(a, b)
			if c.IsNaR(a) || c.IsNaR(b) {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ NaR·x must be NaR", c.N, c.ES)
				}
				return
			}
			x := new(big.Rat).Mul(ratValue(c, a), ratValue(c, b))
			checkNearest(t, c, x, got, "mul "+c.BitString(a)+"*"+c.BitString(b))
		})
	}
}

func TestDivOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		finitePairs(t, c, func(a, b Bits) {
			got := c.Div(a, b)
			if c.IsNaR(a) || c.IsNaR(b) || b == 0 {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ %s/%s must be NaR, got %s", c.N, c.ES, c.Format(a), c.Format(b), c.Format(got))
				}
				return
			}
			x := new(big.Rat).Quo(ratValue(c, a), ratValue(c, b))
			checkNearest(t, c, x, got, "div "+c.BitString(a)+"/"+c.BitString(b))
		})
	}
}

// TestSqrtOracle checks correct rounding of sqrt by comparing the squared
// midpoints of the result's neighbor gaps against the radicand — an exact
// test even though the root itself is irrational.
func TestSqrtOracle(t *testing.T) {
	t.Parallel()
	for _, c := range oracleConfigs {
		c := c
		finiteSingles(t, c, func(a Bits) {
			got := c.Sqrt(a)
			if c.IsNaR(a) || c.Sign(a) < 0 {
				if !c.IsNaR(got) {
					t.Fatalf("⟨%d,%d⟩ sqrt(%s) must be NaR", c.N, c.ES, c.Format(a))
				}
				return
			}
			if a == 0 {
				if got != 0 {
					t.Fatalf("sqrt(0) must be 0")
				}
				return
			}
			x := ratValue(c, a)
			if c.IsNaR(got) || c.Sign(got) < 0 {
				t.Fatalf("⟨%d,%d⟩ sqrt(%s) = %s", c.N, c.ES, c.Format(a), c.Format(got))
			}
			// got must satisfy mid(prev,got)² ≤ x ≤ mid(got,next)², with
			// strictness resolving ties to even.
			gv := ratValue(c, got)
			if prev := Bits(uint64(got) - 1); prev != 0 && !c.IsNaR(prev) {
				mid := new(big.Rat).Add(ratValue(c, prev), gv)
				mid.Mul(mid, big.NewRat(1, 2))
				mid.Mul(mid, mid)
				if cmp := x.Cmp(mid); cmp < 0 || (cmp == 0 && got&1 == 1) {
					t.Fatalf("⟨%d,%d⟩ sqrt(%s): %s rounds too high", c.N, c.ES, c.Format(a), c.Format(got))
				}
			}
			if next := Bits(uint64(got) + 1); !c.IsNaR(next) && got != c.MaxPos() {
				mid := new(big.Rat).Add(ratValue(c, next), gv)
				mid.Mul(mid, big.NewRat(1, 2))
				mid.Mul(mid, mid)
				if cmp := x.Cmp(mid); cmp > 0 || (cmp == 0 && got&1 == 1) {
					t.Fatalf("⟨%d,%d⟩ sqrt(%s): %s rounds too low", c.N, c.ES, c.Format(a), c.Format(got))
				}
			}
		})
	}
}

// TestFromFloat64Oracle validates conversion rounding against the oracle.
func TestFromFloat64Oracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, c := range oracleConfigs {
		for i := 0; i < 20000; i++ {
			// Mix of uniform mantissas over a wide exponent range.
			f := (rng.Float64()*2 - 1) * pow2float(rng.Intn(2*int(c.N))-int(c.N))
			got := c.FromFloat64(f)
			x := new(big.Rat).SetFloat64(f)
			checkNearest(t, c, x, got, "fromfloat")
		}
	}
}

func pow2float(e int) float64 {
	f := 1.0
	for ; e > 0; e-- {
		f *= 2
	}
	for ; e < 0; e++ {
		f /= 2
	}
	return f
}

// TestToFloat64Exact: the float64 image of every pattern must equal the
// oracle rational exactly (n ≤ 32 posits are all normal doubles).
func TestToFloat64Exact(t *testing.T) {
	for _, c := range oracleConfigs {
		if c.N > 16 {
			continue // spot-checked via round trip below
		}
		for _, p := range allPatterns(c) {
			if c.IsNaR(p) {
				continue
			}
			f := c.ToFloat64(p)
			want := ratValue(c, p)
			got := new(big.Rat).SetFloat64(f)
			if got.Cmp(want) != 0 {
				t.Fatalf("⟨%d,%d⟩ %s → %v ≠ %s", c.N, c.ES, c.BitString(p), f, want.FloatString(20))
			}
		}
	}
}

// TestRoundTrip: float64 is wide enough that posit→float64→posit must be
// the identity for every configuration we support.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range oracleConfigs {
		for i := 0; i < 50000; i++ {
			p := Bits(rng.Uint64() & c.Mask())
			if c.IsNaR(p) {
				continue
			}
			if back := c.FromFloat64(c.ToFloat64(p)); back != p {
				t.Fatalf("⟨%d,%d⟩ round trip %s → %s", c.N, c.ES, c.BitString(p), c.BitString(back))
			}
		}
	}
}
