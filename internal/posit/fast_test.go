package posit

import (
	"math/rand"
	"testing"
)

// TestFastDecode16Exhaustive checks the ⟨16,1⟩ decode table against the
// generic decoder for every one of the 65536 bit patterns, including zero
// and NaR (the table stores whatever the reference computes for them, so
// dispatch is equivalent even off-contract).
func TestFastDecode16Exhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		p := Bits(i)
		got := Config16.Decode(p)
		want := Config16.GenericDecode(p)
		if got != want {
			t.Fatalf("Decode(%#04x) = %+v, generic %+v", i, got, want)
		}
		if want.Frac&(1<<48-1) != 0 {
			t.Fatalf("Decode(%#04x): generic Frac %#x has bits below 48; table packing would be lossy", i, want.Frac)
		}
	}
}

// TestFastDecode8Exhaustive does the same for all 256 ⟨8,0⟩ patterns.
func TestFastDecode8Exhaustive(t *testing.T) {
	for i := 0; i < 1<<8; i++ {
		p := Bits(i)
		got := Config8.Decode(p)
		want := Config8.GenericDecode(p)
		if got != want {
			t.Fatalf("Decode(%#02x) = %+v, generic %+v", i, got, want)
		}
		if want.Frac&(1<<56-1) != 0 {
			t.Fatalf("Decode(%#02x): generic Frac %#x has bits below 56; table packing would be lossy", i, want.Frac)
		}
	}
}

// TestFastArith8Exhaustive checks the ⟨8,0⟩ result tables against the
// generic reference for all 256×256 operand pairs.
func TestFastArith8Exhaustive(t *testing.T) {
	for a := 0; a < 1<<8; a++ {
		for b := 0; b < 1<<8; b++ {
			pa, pb := Bits(a), Bits(b)
			if got, want := Config8.Add(pa, pb), Config8.GenericAdd(pa, pb); got != want {
				t.Fatalf("Add8(%#02x, %#02x) = %#02x, generic %#02x", a, b, got, want)
			}
			if got, want := Config8.Mul(pa, pb), Config8.GenericMul(pa, pb); got != want {
				t.Fatalf("Mul8(%#02x, %#02x) = %#02x, generic %#02x", a, b, got, want)
			}
		}
	}
}

// edge16 is the set of patterns most likely to stress rounding corners:
// zero, NaR, ±1, ±minpos, ±maxpos, the saturation-region neighbors where
// encode16 falls back to the midpoint comparison, and powers of two.
func edge16() []Bits {
	c := Config16
	edges := []Bits{0, c.NaR(), c.One(), c.Neg(c.One()), c.MinPos(), c.Neg(c.MinPos()),
		c.MaxPos(), c.Neg(c.MaxPos())}
	for _, p := range []Bits{0x7ffe, 0x7ff0, 0x7f00, 0x0002, 0x0003, 0x4001, 0x3fff, 0x5555, 0xaaaa & Bits(c.Mask())} {
		edges = append(edges, p, c.Neg(p))
	}
	return edges
}

// TestFastArith16Edges crosses every edge pattern with all 65536 patterns
// for both Add and Mul: full coverage of the rows where saturation,
// cancellation and NaR/zero handling live.
func TestFastArith16Edges(t *testing.T) {
	if testing.Short() {
		t.Skip("65536×len(edges) operand pairs")
	}
	for _, a := range edge16() {
		for b := 0; b < 1<<16; b++ {
			pb := Bits(b)
			if got, want := Config16.Add(a, pb), Config16.GenericAdd(a, pb); got != want {
				t.Fatalf("Add16(%#04x, %#04x) = %#04x, generic %#04x", a, pb, got, want)
			}
			if got, want := Config16.Mul(a, pb), Config16.GenericMul(a, pb); got != want {
				t.Fatalf("Mul16(%#04x, %#04x) = %#04x, generic %#04x", a, pb, got, want)
			}
		}
	}
}

// TestFastArith16Random samples uniform operand pairs; combined with the
// edge rows this gives strong coverage of the in-range rounding logic
// (the exhaustive 2^32 cross product runs ~minutes, too slow for CI).
func TestFastArith16Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		a := Bits(rng.Intn(1 << 16))
		b := Bits(rng.Intn(1 << 16))
		if got, want := Config16.Add(a, b), Config16.GenericAdd(a, b); got != want {
			t.Fatalf("Add16(%#04x, %#04x) = %#04x, generic %#04x", a, b, got, want)
		}
		if got, want := Config16.Mul(a, b), Config16.GenericMul(a, b); got != want {
			t.Fatalf("Mul16(%#04x, %#04x) = %#04x, generic %#04x", a, b, got, want)
		}
		if got, want := Config16.Sub(a, b), Config16.GenericAdd(a, Config16.Neg(b)); got != want {
			t.Fatalf("Sub16(%#04x, %#04x) = %#04x, generic %#04x", a, b, got, want)
		}
	}
}

// FuzzDecode32 cross-checks the constant-folded ⟨32,2⟩ decoder against the
// generic field walk.
func FuzzDecode32(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0x80000000)) // NaR
	f.Add(uint32(0x40000000)) // one
	f.Add(uint32(0x7fffffff)) // maxpos
	f.Add(uint32(1))          // minpos
	f.Add(uint32(0xdeadbeef))
	f.Fuzz(func(t *testing.T, u uint32) {
		p := Bits(u)
		if got, want := Config32.Decode(p), Config32.GenericDecode(p); got != want {
			t.Fatalf("Decode32(%#08x) = %+v, generic %+v", u, got, want)
		}
	})
}

// TestDecode32Sampled gives the fuzz target deterministic baseline coverage
// in plain `go test` runs: every pattern with the low 16 bits zero plus a
// random sample.
func TestDecode32Sampled(t *testing.T) {
	for hi := 0; hi < 1<<16; hi++ {
		p := Bits(uint32(hi) << 16)
		if got, want := Config32.Decode(p), Config32.GenericDecode(p); got != want {
			t.Fatalf("Decode32(%#08x) = %+v, generic %+v", p, got, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1_000_000; i++ {
		p := Bits(rng.Uint32())
		if got, want := Config32.Decode(p), Config32.GenericDecode(p); got != want {
			t.Fatalf("Decode32(%#08x) = %+v, generic %+v", p, got, want)
		}
	}
}

// TestFastArithAllocs pins the LUT paths at zero allocations per op — the
// property that keeps shadow execution allocation-free at steady state.
func TestFastArithAllocs(t *testing.T) {
	a, b := Config16.One(), Bits(0x3000) // 1 + 0.5: plain in-range rounding
	if n := testing.AllocsPerRun(1000, func() {
		sink16 = Config16.Add(a, b)
	}); n != 0 {
		t.Errorf("Config16.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sink16 = Config16.Mul(a, b)
	}); n != 0 {
		t.Errorf("Config16.Mul allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sink16 = Config8.Add(Bits(0x40), Bits(0x30))
	}); n != 0 {
		t.Errorf("Config8.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sinkDec = Config32.Decode(Bits(0x40000000))
	}); n != 0 {
		t.Errorf("Config32.Decode allocates %v/op, want 0", n)
	}
}

var (
	sink16  Bits
	sinkDec Decoded
)

// edge32 mirrors edge16 for ⟨32,2⟩: zero, NaR, ±1, ±minpos, ±maxpos,
// saturation-region neighbors and patterns that exercise long regimes.
func edge32() []Bits {
	c := Config32
	edges := []Bits{0, c.NaR(), c.One(), c.Neg(c.One()), c.MinPos(), c.Neg(c.MinPos()),
		c.MaxPos(), c.Neg(c.MaxPos())}
	for _, p := range []Bits{0x7ffffffe, 0x7ffffff0, 0x7fff0000, 0x00000002, 0x00000003,
		0x40000001, 0x3fffffff, 0x55555555, 0xaaaaaaaa & Bits(c.Mask())} {
		edges = append(edges, p, c.Neg(p))
	}
	return edges
}

// TestFastArith32Random differentially tests the ⟨32,2⟩ fast Add/Mul paths
// against the table-free generic reference: the full edge cross product
// plus uniform random pairs (the exhaustive 2^64 product is infeasible).
func TestFastArith32Random(t *testing.T) {
	edges := edge32()
	for _, a := range edges {
		for _, b := range edges {
			if got, want := Config32.Add(a, b), Config32.GenericAdd(a, b); got != want {
				t.Fatalf("Add32(%#08x, %#08x) = %#08x, generic %#08x", a, b, got, want)
			}
			if got, want := Config32.Mul(a, b), Config32.GenericMul(a, b); got != want {
				t.Fatalf("Mul32(%#08x, %#08x) = %#08x, generic %#08x", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		a := Bits(rng.Uint32())
		b := Bits(rng.Uint32())
		// Bias a fraction of pairs toward nearby magnitudes, where addition's
		// cancellation and renormalization paths live.
		if i%4 == 0 {
			b = a ^ Bits(rng.Uint32()&0xffff)
		}
		if got, want := Config32.Add(a, b), Config32.GenericAdd(a, b); got != want {
			t.Fatalf("Add32(%#08x, %#08x) = %#08x, generic %#08x", a, b, got, want)
		}
		if got, want := Config32.Mul(a, b), Config32.GenericMul(a, b); got != want {
			t.Fatalf("Mul32(%#08x, %#08x) = %#08x, generic %#08x", a, b, got, want)
		}
		if got, want := Config32.Sub(a, b), Config32.GenericAdd(a, Config32.Neg(b)); got != want {
			t.Fatalf("Sub32(%#08x, %#08x) = %#08x, generic %#08x", a, b, got, want)
		}
	}
}
