package harness

import (
	"strings"
	"testing"

	"positdebug/internal/shadow"
)

var quick = Options{Quick: true, Repeats: 1}

// TestFig7Shape: the PositDebug slowdowns must be >1 and ordered
// 512 ≥ 128 at the geomean (the paper's precision scaling). Each column
// keeps its best of three interleaved repetitions, so one slow stretch of
// the host cannot reorder the geomeans.
func TestFig7Shape(t *testing.T) {
	opts := quick
	opts.Repeats = 3
	tbl, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 26 {
		t.Fatalf("expected 26 kernels, got %d", len(tbl.Rows))
	}
	if tbl.Geomean[0] <= 1 || tbl.Geomean[1] <= 1 || tbl.Geomean[2] <= 1 {
		t.Fatalf("slowdowns must exceed 1×: %v", tbl.Geomean)
	}
	if tbl.Geomean[0] < tbl.Geomean[2]*0.95 {
		t.Fatalf("512-bit should not be materially faster than 128-bit: %v", tbl.Geomean)
	}
	s := tbl.String()
	if !strings.Contains(s, "gemm") || !strings.Contains(s, "geomean") {
		t.Fatalf("table rendering:\n%s", s)
	}
}

// TestFig9Shape: FPSanitizer overheads exceed PositDebug's relative
// overheads (the FP baseline is faster, so shadowing costs more
// relatively) — the qualitative relation between Figures 7 and 9.
func TestFig9Shape(t *testing.T) {
	t9, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if t9.Geomean[1] <= 1 {
		t.Fatalf("FPSanitizer slowdown must exceed 1×: %v", t9.Geomean)
	}
}

// TestHerbgrindGap: the Herbgrind-style runtime must be several times
// slower than FPSanitizer (the paper reports >10× on its testbed).
func TestHerbgrindGap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing gap")
	}
	tbl, err := HerbgrindTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tbl.Geomean[2]
	if ratio < 2 {
		t.Fatalf("Herbgrind-style runtime only %.1f× slower than FPSanitizer; expected a large gap", ratio)
	}
}

// TestSoftPositBaseline: software posit arithmetic must be much slower
// than native float64 (the paper's 11×; ours is Go-native vs Go-posit).
func TestSoftPositBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing gap")
	}
	ratio := SoftPositBaseline(40, 2)
	if ratio < 3 {
		t.Fatalf("software posit only %.1f× slower than native float64", ratio)
	}
}

// TestDetectionAggregates: the §5.1 run must detect errors in all 32
// programs and cover every error class.
func TestDetectionAggregates(t *testing.T) {
	d, err := RunDetection()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 32 {
		t.Fatalf("32 programs expected, got %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		if len(r.Detected) == 0 && r.OutputBits < 35 && r.MaxOpBits < 35 && r.Flips == 0 {
			t.Fatalf("program %s shows no detections at all", r.Name)
		}
	}
	if d.Over35 < 20 {
		t.Fatalf("only %d programs over 35 bits; the suite should be error-rich", d.Over35)
	}
	if d.WithCancellation < 10 {
		t.Fatalf("cancellation count %d too low", d.WithCancellation)
	}
	if d.WithFlips < 3 || d.WithNaR < 2 || d.WithSaturation < 2 || d.WithCast < 1 || d.WithPrecisionLoss < 4 {
		t.Fatalf("class coverage: flips=%d nar=%d sat=%d cast=%d lp=%d",
			d.WithFlips, d.WithNaR, d.WithSaturation, d.WithCast, d.WithPrecisionLoss)
	}
	if d.LargestDAG < 5 {
		t.Fatalf("largest DAG %d too small", d.LargestDAG)
	}
	s := d.String()
	if !strings.Contains(s, "largest DAG") {
		t.Fatal("render")
	}
}

// TestCaseStudies: all four §5.2 case studies run and report.
func TestCaseStudies(t *testing.T) {
	rc, err := RunRootCount()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rc.String(), "branch flips: 1") && !strings.Contains(rc.String(), "branch flips") {
		t.Fatalf("rootcount case: %s", rc)
	}
	cd, err := RunCordic(1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cd.String(), "relative error") {
		t.Fatalf("cordic case: %s", cd)
	}
	sp, err := RunSimpson(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.String(), "quire fused") {
		t.Fatalf("simpson case: %s", sp)
	}
	qd, err := RunQuadratic()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qd.String(), "worst output error") {
		t.Fatalf("quadratic case: %s", qd)
	}
}

// TestTableGeomean sanity.
func TestTableGeomean(t *testing.T) {
	tbl := &Table{Columns: []string{"a"}}
	tbl.AddRow("x", 2)
	tbl.AddRow("y", 8)
	tbl.FinishGeomean()
	if tbl.Geomean[0] != 4 {
		t.Fatalf("geomean = %v", tbl.Geomean)
	}
	if g := geomeanOf([]float64{2, 8}); g != 4 {
		t.Fatalf("geomeanOf = %v", g)
	}
}

var _ = shadow.KindNone

// TestMemoryGrowth: PositDebug's shadow pages stay constant while the
// Herbgrind-style trace metadata grows with iteration count.
func TestMemoryGrowth(t *testing.T) {
	rows, err := MemoryGrowth([]int{10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ShadowPages != rows[2].ShadowPages {
		t.Fatalf("PositDebug shadow pages must not grow with iterations: %+v", rows)
	}
	if rows[2].HerbNodes < rows[0].HerbNodes*20 {
		t.Fatalf("Herbgrind-style nodes must grow ~linearly: %+v", rows)
	}
	if rows[2].DynamicOps <= rows[0].DynamicOps {
		t.Fatal("op counts must grow")
	}
	if !strings.Contains(FormatMemoryRows(rows), "shadow pages") {
		t.Fatal("render")
	}
}

// TestCordicAccuracySweep reproduces the §5.2.1 claim: the posit CORDIC
// sin is at least as accurate as the identical float32 implementation on
// the overwhelming majority of [0, π/2].
func TestCordicAccuracySweep(t *testing.T) {
	row := CordicAccuracy(1000, 0, 1.5707963267948966)
	pct := float64(row.PositBetter+row.Ties) / float64(row.Samples)
	if pct < 0.85 {
		t.Fatalf("posit at least as accurate on only %.1f%% (paper: 97%%): %s", pct*100, row)
	}
	if !strings.Contains(row.String(), "accuracy") {
		t.Fatal("render")
	}
}

// TestKernelErrors: running the benchmark kernels as posit programs shows
// numerical error in a substantial subset (the paper: six PolyBench and
// all SPEC applications).
func TestKernelErrors(t *testing.T) {
	rows, err := KernelErrors(quick, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 {
		t.Fatalf("kernels: %d", len(rows))
	}
	flagged := 0
	specFlagged := 0
	for _, r := range rows {
		if r.Flagged {
			flagged++
			if strings.HasPrefix(r.Name, "spec_") {
				specFlagged++
			}
		}
	}
	if flagged < 6 {
		t.Fatalf("only %d kernels flagged; the paper observed errors broadly", flagged)
	}
	if specFlagged < 3 {
		t.Fatalf("only %d SPEC-like kernels flagged", specFlagged)
	}
	if !strings.Contains(FormatKernelErrors(rows, 35), "flagged") {
		t.Fatal("render")
	}
}
