package oracle

// NewReference returns the math/big.Float reference of the bigfp oracle at
// prec bits (0 means 256).
func NewReference(prec uint) Oracle { return newRefOracle(prec) }

// UseBigFP makes New construct its BigFP oracles with f until the returned
// func restores the previous constructor. Tests that call it must not run
// in parallel with others that construct oracles.
func UseBigFP(f func(prec uint) Oracle) (restore func()) {
	prev := newBigFP
	newBigFP = f
	return func() { newBigFP = prev }
}
