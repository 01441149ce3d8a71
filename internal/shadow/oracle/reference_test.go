package oracle_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

// referenceProgram is one program of the end-to-end reference comparison.
type referenceProgram struct {
	name string
	prog *positdebug.Program
}

// referencePrograms compiles the §5.1 detection suite and every PolyBench
// kernel at a quarter of its DefaultN, as f64 and as its posit refactor.
func referencePrograms(t *testing.T) []referenceProgram {
	t.Helper()
	var progs []referenceProgram
	add := func(name, src string, toPosit bool) {
		if toPosit {
			var err error
			if src, err = positdebug.RefactorToPosit(src); err != nil {
				t.Fatalf("%s: refactor: %v", name, err)
			}
		}
		prog, err := positdebug.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		progs = append(progs, referenceProgram{name, prog})
	}
	for _, p := range workloads.Suite() {
		add(p.Name, p.Source, p.FromFP)
	}
	for _, k := range workloads.PolyBench() {
		src := k.Source(max(k.DefaultN/4, 2))
		add(k.Name+"/f64", src, false)
		add(k.Name+"/posit", src, true)
	}
	return progs
}

// referenceRun is everything observable from one shadowed Exec.
func referenceRun(t *testing.T, p referenceProgram, bk backend.Kind, prec uint) string {
	t.Helper()
	cfg := shadow.ConfigFor(oracle.BigFP, prec)
	cfg.ErrBitsThreshold = 35
	cfg.OutputThreshold = 35
	cfg.PrecisionLossThreshold = 8
	reg := obs.NewRegistry()
	res, err := p.prog.Exec("main", positdebug.WithShadow(cfg), positdebug.WithBackend(bk), positdebug.WithMetrics(reg))
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "value %#x steps %d\noutput %q\n", res.Value, res.Steps, res.Output)
	sum, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(sum)
	for _, r := range res.Summary.Reports {
		fmt.Fprintf(&sb, "\n%s", r)
	}
	sb.WriteString("\n")
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestReferenceOracle runs the §5.1 suite and every PolyBench kernel at
// DefaultN/4, posit and f64, on both backends, at 64, 128, 256 and 512
// bits, under the bigfp oracle and under the math/big.Float reference it
// replaced, and requires every run's value, steps, output, summary,
// reports and metrics dump to be byte-identical. The Exec goldens pin
// 256 bits only.
func TestReferenceOracle(t *testing.T) {
	progs := referencePrograms(t)
	runAll := func(bk backend.Kind, prec uint) []string {
		out := make([]string, len(progs))
		for i, p := range progs {
			out[i] = referenceRun(t, p, bk, prec)
		}
		return out
	}
	for _, prec := range []uint{64, 128, 256, 512} {
		for _, bk := range []backend.Kind{backend.Treewalk, backend.VM} {
			restore := oracle.UseBigFP(oracle.NewReference)
			want := runAll(bk, prec)
			restore()
			got := runAll(bk, prec)
			for i, p := range progs {
				if got[i] != want[i] {
					t.Errorf("%s at %d bits on %s differs from the math/big reference:\n--- bigfp ---\n%s\n--- reference ---\n%s",
						p.name, prec, bk, got[i], want[i])
				}
			}
		}
	}
}

// TestReferenceOracleIsUsed checks the swap the comparison relies on: New
// builds the reference while it is installed, and the bigfp oracle after.
func TestReferenceOracleIsUsed(t *testing.T) {
	ref := oracle.NewReference(0)
	restore := oracle.UseBigFP(func(uint) oracle.Oracle { return ref })
	got, err := oracle.New(oracle.BigFP, 128)
	restore()
	if err != nil || got != ref {
		t.Fatalf("New under UseBigFP = %v, %v; want the reference", got, err)
	}
	if got, _ := oracle.New(oracle.BigFP, 128); got == ref {
		t.Fatal("restore left the reference installed")
	}
}
