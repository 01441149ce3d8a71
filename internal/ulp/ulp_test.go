package ulp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOrdinalAdjacency(t *testing.T) {
	cases := []float64{0, 1, -1, 1e-300, -1e-300, 1e300, -1e300, math.Pi, -math.Pi}
	for _, f := range cases {
		up := math.Nextafter(f, math.Inf(1))
		if Ordinal(up)-Ordinal(f) != 1 {
			t.Fatalf("Nextafter(%g) must be 1 ulp away, got %d", f, Ordinal(up)-Ordinal(f))
		}
	}
	if Ordinal(math.Copysign(0, -1)) != Ordinal(0.0) {
		t.Fatal("±0 must share an ordinal")
	}
}

func TestOrdinalMonotone(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a < b {
			return Ordinal(a) < Ordinal(b)
		}
		if a > b {
			return Ordinal(a) > Ordinal(b)
		}
		return Ordinal(a) == Ordinal(b) || a == 0 // ±0 compare equal
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDistance(t *testing.T) {
	if d := Distance(1.0, 1.0); d != 0 {
		t.Fatalf("identical values: %d", d)
	}
	if d := Distance(1.0, math.Nextafter(1.0, 2)); d != 1 {
		t.Fatalf("adjacent values: %d", d)
	}
	if d := Distance(-1.0, 1.0); d == 0 {
		t.Fatal("crossing zero must be a large distance")
	}
	if d := Distance(math.NaN(), 1.0); d != math.MaxUint64 {
		t.Fatal("NaN must be maximal distance")
	}
	// Symmetry.
	if Distance(3.5, -7.25) != Distance(-7.25, 3.5) {
		t.Fatal("distance must be symmetric")
	}
}

func TestBits(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
		{1 << 52, 52}, {1<<52 + 1, 53},
	}
	for _, tc := range cases {
		if got := Bits(tc.d); got != tc.want {
			t.Fatalf("Bits(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// The bit length of d−1, counted one shift at a time.
	loop := func(d uint64) int {
		n := 0
		for v := d - 1; d > 1 && v > 0; v >>= 1 {
			n++
		}
		return n
	}
	ds := []uint64{0, 1, 2, math.MaxUint64}
	for k := 1; k < 64; k++ {
		ds = append(ds, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, d := range ds {
		if got, want := Bits(d), loop(d); got != want {
			t.Errorf("Bits(%d) = %d, shift loop %d", d, got, want)
		}
	}
}

// TestPaperExample: §2.3 — a posit computing 2^-116 where the ideal value
// is 2^-120 has relative error 15 even though it is only 1 posit-ULP off.
func TestPaperExample(t *testing.T) {
	computed, ideal := math.Ldexp(1, -116), math.Ldexp(1, -120)
	if rel := math.Abs(computed-ideal) / ideal; rel != 15 {
		t.Fatalf("relative error = %v, want 15", rel)
	}
	// In double-ULP space the same error is huge — the paper's reporting
	// metric makes the error visible: 4 binades ≈ 2^54 ulps.
	if d := Distance(computed, ideal); Bits(d) < 50 {
		t.Fatalf("bits of error = %d, want ≥ 50", Bits(d))
	}
}

// TestDistanceOverflow: an oracle value beyond the double range rounds to
// +Inf, the extreme ordinal, so its distance is large but finite.
func TestDistanceOverflow(t *testing.T) {
	d := Distance(1.0, math.Inf(1))
	if d == 0 || d == math.MaxUint64 {
		t.Fatalf("overflowing oracle must give a finite large distance, got %d", d)
	}
}
