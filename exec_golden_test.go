package positdebug_test

// Goldens for Program.Exec. Every detection-suite program and every
// PolyBench and SPEC-like kernel (at DefaultN/4, as f64 and refactored to
// ⟨32,2⟩ posits) runs under four configurations — the served config, the
// baseline, the dd oracle and sampling stride 16 — and the rendered result
// (value, steps, output, detection counts and every report) is compared
// byte for byte against testdata/exec_golden. The goldens pin what a fresh
// Exec produces; anything Exec reuses between runs must reproduce them.
//
// -update rewrites the goldens from the current Program.Exec:
//
//	go test . -run TestExecGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the Exec goldens in testdata/exec_golden")

// goldenConfig is one of the four run configurations every golden program
// executes under.
type goldenConfig struct {
	name string
	opts func() []positdebug.Option
}

var goldenConfigs = []goldenConfig{
	{"served", func() []positdebug.Option {
		// What pdserve runs for a shadow request.
		cfg := shadow.ConfigFor(oracle.BigFP, 256)
		cfg.Tracing = false
		cfg.MaxReports = 1
		return []positdebug.Option{positdebug.WithShadow(cfg)}
	}},
	{"baseline", func() []positdebug.Option {
		return []positdebug.Option{positdebug.WithBaseline()}
	}},
	{"dd", func() []positdebug.Option {
		return []positdebug.Option{positdebug.WithShadowOracle(oracle.DD)}
	}},
	{"sample16", func() []positdebug.Option {
		return []positdebug.Option{positdebug.WithSampling(16)}
	}},
}

// goldenProgram is one compiled program of the golden set. family names
// the golden file it is recorded in.
type goldenProgram struct {
	family string
	name   string
	src    string
}

// Adversarial pair for recycled memory images: advFill dirties its 16 KiB
// of globals and a ~100 KiB deep stack with non-zero bytes and shadowed
// values; advRead has two tiny global arrays and, since PCL does not
// bounds-check indexing, reads far past them — across the region
// advFill's globals occupied, then through a window of the stack its
// recursion covered. On a clean image every read is zero.
const advFill = `
var big: [1536]i64;
var fbig: [512]f64;

func dig(d: i64): f64 {
	var pad: [64]f64;
	for (var i: i64 = 0; i < 64; i += 1) {
		pad[i] = f64(d * 64 + i) + 0.5;
	}
	if (d <= 0) { return pad[3]; }
	return dig(d - 1) + pad[d % 64];
}

func main(): f64 {
	for (var i: i64 = 0; i < 1536; i += 1) {
		big[i] = -1 - i;
	}
	for (var i: i64 = 0; i < 512; i += 1) {
		fbig[i] = f64(i) + 0.25;
	}
	var s: f64 = dig(200);
	print(s);
	return s;
}
`

const advRead = `
var small: [2]i64;
var fsmall: [2]f64;

func main(): i64 {
	var acc: i64 = 0;
	var nz: i64 = 0;
	// The filler's 16 KiB of globals.
	for (var i: i64 = 2; i < 2048; i += 1) {
		var v: i64 = small[i];
		if (v != 0) { nz += 1; }
		acc = acc + v;
	}
	// 47 KiB of stack inside the filler's recursion, read as f64 through
	// shadowed loads.
	var fs: f64 = 0.0;
	for (var i: i64 = 518000; i < 524000; i += 3) {
		var w: f64 = fsmall[i];
		if (w != 0.0) { nz += 1; }
		fs = fs + w;
	}
	print(acc);
	print(fs);
	print(nz);
	return nz;
}
`

// goldenPrograms lists the golden set in a fixed order.
func goldenPrograms(t testing.TB) []goldenProgram {
	t.Helper()
	refactor := func(src string) string {
		out, err := positdebug.RefactorToPosit(src)
		if err != nil {
			t.Fatalf("refactor: %v", err)
		}
		return out
	}
	var ps []goldenProgram
	for _, p := range workloads.Suite() {
		if p.FromFP {
			ps = append(ps,
				goldenProgram{"suite", p.Name + "/f64", p.Source},
				goldenProgram{"suite", p.Name + "/posit", refactor(p.Source)})
			continue
		}
		ps = append(ps, goldenProgram{"suite", p.Name + "/posit", p.Source})
	}
	for _, k := range append(workloads.PolyBench(), workloads.SpecLike()...) {
		src := k.Source(k.DefaultN / 4)
		ps = append(ps,
			goldenProgram{"kernels", k.Name + "/f64", src},
			goldenProgram{"kernels", k.Name + "/posit", refactor(src)})
	}
	ps = append(ps,
		goldenProgram{"adversarial", "fill", advFill},
		goldenProgram{"adversarial", "read", advRead})
	return ps
}

// goldenRun is one (program, configuration) pair of the golden set.
type goldenRun struct {
	key  string // "<program>@<config>", the golden record header
	prog *positdebug.Program
	cfg  goldenConfig
}

// goldenRuns compiles the golden set once and crosses it with the four
// configurations, program-major.
func goldenRuns(t testing.TB) (runs []goldenRun, families map[string][]int) {
	t.Helper()
	families = map[string][]int{}
	for _, gp := range goldenPrograms(t) {
		prog, err := positdebug.Compile(gp.src)
		if err != nil {
			t.Fatalf("compile %s: %v", gp.name, err)
		}
		prog.SetSourceName(gp.family + "/" + gp.name)
		for _, c := range goldenConfigs {
			families[gp.family] = append(families[gp.family], len(runs))
			runs = append(runs, goldenRun{key: gp.family + "/" + gp.name + "@" + c.name, prog: prog, cfg: c})
		}
	}
	return runs, families
}

// exec runs the golden pair with extra options appended and renders it.
func (g goldenRun) exec(extra ...positdebug.Option) string {
	res, err := g.prog.Exec("main", append(g.cfg.opts(), extra...)...)
	return renderExec(res, err)
}

// renderExec renders everything observable from one Exec: the value,
// steps, output, shadow verdicts and every report, or the error.
func renderExec(res *positdebug.Result, err error) string {
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
		return sb.String()
	}
	fmt.Fprintf(&sb, "value %#x steps %d degraded %v\n", res.Value, res.Steps, res.Degraded)
	if s := res.Summary; s != nil {
		fmt.Fprintf(&sb, "shadow %s/%d ops %d maxop %d outmax %d flips %d uninstr %d\n",
			res.ShadowOracle, res.ShadowPrecision, s.TotalOps, s.MaxOpErrBits,
			s.OutputMaxErrBits, s.BranchFlips, s.UninstrumentedWrites)
		kinds := make([]string, 0, len(s.Counts))
		for k, n := range s.Counts {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(&sb, "counts %s\n", strings.Join(kinds, " "))
		for i, r := range s.Reports {
			fmt.Fprintf(&sb, "report %d: %s\n", i, r)
		}
	}
	fmt.Fprintf(&sb, "output:\n%s", res.Output)
	return sb.String()
}

// goldenFile renders one family's records in run order.
func goldenFile(runs []goldenRun, idx []int, got []string) string {
	var sb strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&sb, "=== %s\n%s", runs[i].key, got[i])
	}
	return sb.String()
}

// loadGoldens reads the recorded renderings back, keyed by run.
func loadGoldens(t testing.TB, runs []goldenRun, families map[string][]int) []string {
	t.Helper()
	want := make([]string, len(runs))
	for fam, idx := range families {
		path := filepath.Join("testdata", "exec_golden", fam+".txt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update): %v", path, err)
		}
		records := strings.Split(strings.TrimPrefix(string(raw), "=== "), "\n=== ")
		if len(records) != len(idx) {
			t.Fatalf("%s: %d records, want %d (run with -update)", path, len(records), len(idx))
		}
		for j, rec := range records {
			key, body, _ := strings.Cut(rec, "\n")
			if j < len(records)-1 {
				body += "\n" // the separator's newline ends this record
			}
			if key != runs[idx[j]].key {
				t.Fatalf("%s: record %d is %q, want %q", path, j, key, runs[idx[j]].key)
			}
			want[idx[j]] = body
		}
	}
	return want
}

// TestExecGolden runs the golden set in order on the default backend and
// compares against (or, with -update, rewrites) testdata/exec_golden.
func TestExecGolden(t *testing.T) {
	runs, families := goldenRuns(t)
	got := make([]string, len(runs))
	for i, g := range runs {
		got[i] = g.exec()
	}
	if *updateGolden {
		dir := filepath.Join("testdata", "exec_golden")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for fam, idx := range families {
			if err := os.WriteFile(filepath.Join(dir, fam+".txt"), []byte(goldenFile(runs, idx, got)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want := loadGoldens(t, runs, families)
	for i := range runs {
		if got[i] != want[i] {
			t.Errorf("%s drifted from its golden\n--- got ---\n%s--- want ---\n%s", runs[i].key, got[i], want[i])
		}
	}
}
