package faultinject

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"positdebug/internal/obs"
)

// -update rewrites the golden files from the current campaign output:
//
//	go test ./internal/faultinject -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign output drifted from %s — if the change is intentional, re-run with -update and review the diff\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestCampaignGolden pins the JSON report (pdfault -json -schedules) of
// gemm campaigns across the injector's modes: single faults on both
// architectures, rate-mode multi-bit flips, memory/call-only sites, and a
// shadow budget tight enough that every run degrades its precision and
// retries. Every run replays its schedule, so any change to where faults
// land, what they corrupt or how the oracle classifies them is a golden
// diff.
func TestCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"single_both.json.golden", CampaignConfig{
			Arch: "both", Runs: 24, Seed: 42,
			Model: Model{Kind: BitFlip, BitPos: -1},
		}},
		{"multiflip_rate.json.golden", CampaignConfig{
			Arch: "posit", Runs: 16, Seed: 5,
			Model: Model{Kind: MultiBitFlip, FlipBits: 3, BitPos: -1, Rate: 0.001, MaxInjections: 4},
		}},
		{"ops_load_store_call.json.golden", CampaignConfig{
			Arch: "both", Runs: 16, Seed: 9,
			Model: Model{Kind: BitFlip, BitPos: -1, Ops: ClassLoad | ClassStore | ClassCall},
		}},
		{"degraded_budget.json.golden", CampaignConfig{
			Arch: "posit", Runs: 30, Seed: 42, MaxShadowBytes: 800_000,
			Model: Model{Kind: BitFlip, BitPos: -1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workload = "polybench/gemm"
			cfg.KeepSchedules = true
			rep, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// TestCampaignTraceGolden pins one traced campaign's JSON-lines event
// stream (pdfault -trace), which fixes how the injector's inject events
// interleave with the shadow runtime's detections within each run.
func TestCampaignTraceGolden(t *testing.T) {
	var out bytes.Buffer
	sink := obs.NewJSONLines(&out)
	cfg := CampaignConfig{
		Workload: "polybench/gemm", N: 4, Arch: "both", Runs: 8, Seed: 11,
		Model: Model{Kind: BitFlip, BitPos: -1, Rate: 0.01, MaxInjections: 3},
		Trace: sink,
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl.golden", out.Bytes())
}

// TestCampaignMetricsGolden pins the Prometheus dump of local single-fault
// campaigns with Metrics attached: detections by kind, shadowed ops, steps,
// error-bit histograms and outcomes, summed over every run of gemm on both
// architectures and of a memory/call-only sweep. A run that skips work
// another run already did must still count every event exactly once.
func TestCampaignMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	for _, m := range []Model{
		{Kind: BitFlip, BitPos: -1},
		{Kind: BitFlip, BitPos: -1, Ops: ClassCall | ClassStore},
	} {
		cfg := CampaignConfig{
			Workload: "polybench/gemm", Arch: "both", Runs: 24, Seed: 42,
			Model: m, Metrics: reg,
		}
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

// TestCampaignTraceSingleGolden pins a traced single-fault campaign's
// JSON-lines event stream at campaign size: each run's run-start, its one
// inject event among the detections, and its run-end and outcome.
func TestCampaignTraceSingleGolden(t *testing.T) {
	var out bytes.Buffer
	sink := obs.NewJSONLines(&out)
	cfg := CampaignConfig{
		Workload: "polybench/gemm", Arch: "both", Runs: 8, Seed: 42,
		Model: Model{Kind: BitFlip, BitPos: -1},
		Trace: sink,
	}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_single.jsonl.golden", out.Bytes())
}
