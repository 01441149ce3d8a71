// Package oracle defines the pluggable shadow-value backends behind the
// shadow runtime (the "multi-oracle" tier of the roadmap): the paper's
// arbitrary-precision MPFR stand-in (bigfp), an allocation-free
// double-double oracle in the spirit of NSan's twice-the-width native
// shadowing, and a residue-tracking oracle that carries a single float64
// estimate plus the last operation's exact rounding residue.
//
// All three share one Value representation and one Oracle interface, so the
// runtime's constant-size metadata (§3.2 of the paper) is oracle-agnostic:
// selecting a cheaper oracle changes per-entry cost and shadow precision,
// never metadata shape or propagation rules. The ULP error metric (§4.2)
// is preserved across oracles because it is defined on the float64
// roundings of both values — every oracle rounds its shadow value to the
// nearest float64 before the distance is taken, exactly as the bigfp
// runtime always has.
package oracle

import (
	"fmt"
	"math/big"

	"positdebug/internal/bigfp"
)

// Kind names a shadow-oracle backend.
type Kind string

const (
	// BigFP is the arbitrary-precision oracle (internal/bigfp, the paper's
	// MPFR stand-in). Its mantissa precision is configurable; the paper
	// evaluates 128, 256 and 512 bits.
	BigFP Kind = "bigfp"
	// DD is the double-double oracle: an unevaluated float64 pair carrying
	// ~106 significand bits, computed allocation-free with two-sum /
	// FMA-based two-product kernels. It is the sanitizer-grade middle
	// tier — far above any ⟨n≤32⟩ posit's precision at a fraction of
	// bigfp's cost.
	DD Kind = "dd"
	// Residue is the cheapest tier: the shadow value is a single float64
	// estimate and each operation additionally records its own exact
	// rounding residue (captured with error-free transformations). Error
	// localization in the style of "Accurate Residues"; 53 significand
	// bits.
	Residue Kind = "residue"
)

// Parse normalizes a kind string. The empty string selects BigFP — the
// pre-oracle default, so configs decoded from old JSON keep their exact
// historical behavior.
func Parse(s string) (Kind, error) {
	switch Kind(s) {
	case "", BigFP:
		return BigFP, nil
	case DD:
		return DD, nil
	case Residue:
		return Residue, nil
	}
	return "", fmt.Errorf("oracle: unknown kind %q (want bigfp, dd or residue)", s)
}

// Kinds lists every backend, cheapest last.
func Kinds() []Kind { return []Kind{BigFP, DD, Residue} }

// Value is the shadow value of one temporary or one memory cell. It is a
// plain struct — not an interface — so metadata stays constant-size and
// pool-friendly: the selected oracle uses either the bigfp.Float (BigFP) or
// the float64 pair (DD: Hi+Lo is the unevaluated sum; Residue: Hi is the
// shadow estimate, Lo the producing operation's rounding residue). The
// zero Value represents zero under every oracle. Values are copied with
// Oracle.Copy, never by assignment, which would share Big's words.
type Value struct {
	Big    bigfp.Float
	Hi, Lo float64
}

// Oracle is the pluggable arithmetic behind shadow execution: value
// creation, the shadow counterparts of every program operation, comparison
// (branch-flip oracle), the ULP-distance error metric, and serialization
// for reports. Operations write through pointers so implementations reuse
// storage (mantissa words allocated on first write for BigFP, plain
// fields otherwise).
//
// Implementations may keep internal scratch state: an Oracle instance
// serves one runtime on one goroutine at a time, mirroring the runtime's
// own concurrency contract.
type Oracle interface {
	// Kind identifies the backend.
	Kind() Kind
	// Precision reports nominal significand bits: the configured mantissa
	// precision for BigFP, 106 for DD, 53 for Residue.
	Precision() uint
	// EntryBytes estimates the per-metadata-entry storage this oracle
	// costs beyond the fixed struct overhead — the input to the
	// shadow-memory budget (BigFP: precision/2, scaling with the
	// mantissa words; DD: the fixed 16-byte pair; Residue: 8).
	EntryBytes() int64

	// SetFloat64 sets z to the exact value of f (callers guard NaN/Inf).
	SetFloat64(z *Value, f float64)
	// SetInt64 sets z to v.
	SetInt64(z *Value, v int64)
	// Copy sets z to x.
	Copy(z, x *Value)

	// Add/Sub/Mul set z to the rounded result at the oracle's precision.
	Add(z, x, y *Value)
	Sub(z, x, y *Value)
	Mul(z, x, y *Value)
	// Div reports undefined=true (and leaves z zero) on division by zero.
	Div(z, x, y *Value) bool
	// Sqrt reports undefined=true (and leaves z zero) for negative x.
	Sqrt(z, x *Value) bool
	Neg(z, x *Value)
	Abs(z, x *Value)
	// FMA sets z = a·b + c with a single rounding at the oracle's
	// precision, matching the program's fused semantics.
	FMA(z, a, b, c *Value)

	// Cmp compares x and y (-1, 0, +1) — the branch-flip oracle.
	Cmp(x, y *Value) int
	// Sign reports the sign of x (-1, 0, +1).
	Sign(x *Value) int
	// Float64 rounds x to the nearest float64.
	Float64(x *Value) float64
	// Int64 truncates x toward zero, saturating at the int64 range — the
	// wrong-cast oracle.
	Int64(x *Value) int64
	// Ulps is the paper's error metric: the ULP distance between the
	// computed float64 and x rounded to float64.
	Ulps(computed float64, x *Value) uint64
	// Format renders x for reports and DAG nodes ('g', 10 digits, on the
	// float64 rounding — identical formatting across oracles).
	Format(x *Value) string

	// Big sets z to x exactly — the bridge into the runtime's 768-bit
	// shadow quire.
	Big(z *big.Float, x *Value)
	// SetBig sets z to x rounded to the oracle's precision — the bridge
	// back out of the quire.
	SetBig(z *Value, x *big.Float)
}

// New constructs the oracle for kind. precision applies to BigFP only
// (0 means 256, bigfp's default).
func New(kind Kind, precision uint) (Oracle, error) {
	k, err := Parse(string(kind))
	if err != nil {
		return nil, err
	}
	switch k {
	case DD:
		return &ddOracle{}, nil
	case Residue:
		return &residueOracle{}, nil
	default:
		return newBigFP(precision), nil
	}
}

// newBigFP constructs New's BigFP oracles. The package's tests swap in the
// math/big.Float reference oracle to diff whole runs against it.
var newBigFP = func(prec uint) Oracle { return &bigFPOracle{ctx: bigfp.New(prec)} }

// NominalPrecision reports the significand bits kind would serve at the
// given bigfp precision without constructing an oracle — the feed for
// fleet-wide precision gauges.
func NominalPrecision(kind Kind, precision uint) uint {
	switch kind {
	case DD:
		return ddPrecision
	case Residue:
		return residuePrecision
	default:
		if precision == 0 {
			return 256
		}
		return precision
	}
}
