// Package ulp implements the error metric of the paper (§2.3, §4.2):
// because the ULP of a posit varies wildly with magnitude under tapered
// accuracy, PositDebug measures error as the ULP distance between the
// computed and the exact value after converting both to float64 — a format
// that represents every ⟨32,2⟩ posit exactly as a normal value. The number
// of "bits of error" is ⌈log2(ulp distance)⌉.
package ulp

import (
	"math"
	"math/bits"
)

// Ordinal maps a float64 onto a signed integer whose natural ordering is
// numeric ordering, such that consecutive representable doubles map to
// consecutive integers. NaN maps to the most negative ordinal.
func Ordinal(f float64) int64 {
	if math.IsNaN(f) {
		return math.MinInt64
	}
	b := int64(math.Float64bits(f))
	if b < 0 {
		return math.MinInt64 - b // flip the negative range; −0 maps to 0 like +0
	}
	return b
}

// Distance returns the number of representable doubles between a and b —
// the ULP error between a computed value and an oracle value. Returns
// MaxInt64 if either value is NaN.
func Distance(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	oa, ob := Ordinal(a), Ordinal(b)
	if oa > ob {
		oa, ob = ob, oa
	}
	return uint64(ob - oa)
}

// Bits converts a ULP distance to "bits of error": 0 for a distance of 0 or
// 1 (correctly rounded), otherwise ⌈log2(d)⌉. The output of a correctly
// rounded ⟨32,2⟩ operation can still legitimately show up to ~25 bits in
// double space (posit32 has 27 fraction bits vs double's 52).
func Bits(d uint64) int {
	if d <= 1 {
		return 0
	}
	return bits.Len64(d - 1) // ⌈log2(d)⌉
}
