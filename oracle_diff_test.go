package positdebug_test

import (
	"reflect"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/harness"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// TestOracleDiffDetectionSuite runs the full §5.1 detection suite under
// every shadow oracle on both execution backends and diffs the verdicts
// against the bigfp-256 reference, in the style of the backend
// differential suite.
//
// The dd oracle's contract: every program bigfp flags, dd flags — zero
// flagged/clean disagreements — and on all but the precision-escaping
// programs the full row (detected-kind set, output/op error bits, branch
// flips, DAG size) is bitwise identical. The one escape in the suite is
// fp_muller: Muller's recurrence amplifies the shadow's own rounding
// error by ~2^4.3 per iteration, so over 40 iterations a 106-bit shadow
// is dragged to the same wrong attractor as the program (its wrong-output
// magnitude shrinks) while 256-bit bigfp still tracks the true orbit. dd
// still flags the program — via the cancellation and high-error detectors
// that fire long before the collapse — which is why the watchdog may
// degrade onto dd without losing detection coverage, and why bigfp
// remains the default reference.
//
// The residue oracle carries only 53 bits, so its error measurements may
// legitimately skew on programs whose shadow value itself needs more than
// a double; its contract is bounded skew of the binary flagged/clean
// verdict, not bitwise agreement.
func TestOracleDiffDetectionSuite(t *testing.T) {
	for _, bk := range []backend.Kind{backend.Treewalk, backend.VM} {
		bk := bk
		t.Run(bk.String(), func(t *testing.T) {
			t.Parallel()
			ref, err := harness.RunDetectionOracle(bk, oracle.BigFP, nil, nil)
			if err != nil {
				t.Fatalf("bigfp suite: %v", err)
			}

			dd, err := harness.RunDetectionOracle(bk, oracle.DD, nil, nil)
			if err != nil {
				t.Fatalf("dd suite: %v", err)
			}
			if len(dd.Rows) != len(ref.Rows) {
				t.Fatalf("dd suite ran %d programs, bigfp %d", len(dd.Rows), len(ref.Rows))
			}
			// ddEscapes lists the programs whose true orbit needs more
			// than dd's 106 bits (see the doc comment above); their rows
			// get the verdict-level check only.
			ddEscapes := map[string]bool{"fp_muller": true}
			for i, want := range ref.Rows {
				got := dd.Rows[i]
				if (len(got.Detected) > 0) != (len(want.Detected) > 0) {
					t.Errorf("dd flips the flagged/clean verdict on %s: bigfp %v, dd %v",
						want.Name, want.Detected, got.Detected)
				}
				if ddEscapes[want.Name] {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("dd disagrees with bigfp on %s:\n  bigfp: %+v\n  dd:    %+v",
						want.Name, want, got)
				}
			}

			res, err := harness.RunDetectionOracle(bk, oracle.Residue, nil, nil)
			if err != nil {
				t.Fatalf("residue suite: %v", err)
			}
			skew := 0
			for i, want := range ref.Rows {
				got := res.Rows[i]
				if (len(got.Detected) > 0) != (len(want.Detected) > 0) {
					skew++
					t.Logf("residue verdict skew on %s: bigfp detected %v, residue %v",
						want.Name, want.Detected, got.Detected)
				}
			}
			if skew > 2 {
				t.Errorf("residue flips the flagged/clean verdict on %d programs, tolerance 2", skew)
			}
		})
	}
}

// TestOracleDiffExecResult checks the per-run surface the library hands
// back: for a representative detecting program, Exec under each oracle
// must report the oracle it actually ran (ShadowOracle), its nominal
// precision, and — for dd — the same summary counts as bigfp.
func TestOracleDiffExecResult(t *testing.T) {
	src := `
func main(): p32 {
	var big: p32 = 16777216.0;
	var one: p32 = 1.0;
	return (big + one) - big;
}
`
	prog, err := positdebug.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		kind   oracle.Kind
		cancel int
	}
	var got []outcome
	for _, kind := range oracle.Kinds() {
		res, err := prog.Exec("main", positdebug.WithShadow(shadow.ConfigFor(kind, 0)))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.ShadowOracle != kind {
			t.Errorf("%s: Result.ShadowOracle = %q", kind, res.ShadowOracle)
		}
		if want := oracle.NominalPrecision(kind, 0); res.ShadowPrecision != want {
			t.Errorf("%s: Result.ShadowPrecision = %d, want %d", kind, res.ShadowPrecision, want)
		}
		got = append(got, outcome{kind, res.Summary.Counts[shadow.KindCancellation]})
	}
	for _, o := range got[1:] {
		if o.cancel != got[0].cancel {
			t.Errorf("%s counts %d cancellations, bigfp %d", o.kind, o.cancel, got[0].cancel)
		}
	}
}
