package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"positdebug/internal/shadow/oracle"
)

// -update rewrites the golden files from the current profiler output:
//
//	go test ./internal/harness -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestRecordProfileGolden pins the canonical bytes (pdprof record) of
// merged profiles at several sampling strides, kernels, architectures and
// oracles, so a change to which dynamic instances are shadowed, how they
// are counted or what they measure is a golden diff.
func TestRecordProfileGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ProfileOptions
	}{
		{"gemm_n8_s1.pdprof.golden", ProfileOptions{Kernel: "gemm", N: 8, Posit: true, Runs: 3, Sample: 1}},
		{"gemm_n8_s16.pdprof.golden", ProfileOptions{Kernel: "gemm", N: 8, Posit: true, Runs: 3, Sample: 16}},
		{"lu_n8_s3.pdprof.golden", ProfileOptions{Kernel: "lu", N: 8, Posit: true, Runs: 3, Sample: 3}},
		{"gemm_n8_fp_dd_s4.pdprof.golden", ProfileOptions{Kernel: "gemm", N: 8, Runs: 3, Sample: 4, Oracle: oracle.DD}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := RecordProfile(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := p.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update): %v", path, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("profile drifted from %s — if the change is intentional, re-run with -update and review the diff\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
			}
		})
	}
}
