package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"positdebug/internal/interp"
)

func shardReportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardAssembleByteIdentical is the fabric's core determinism claim at
// the package level: runs sharded into arbitrary ranges, executed
// independently (shards even overlap to mimic hedged duplicates), then
// assembled, produce the exact bytes of a sequential single-process
// campaign.
func TestShardAssembleByteIdentical(t *testing.T) {
	cfg := CampaignConfig{Workload: "polybench/gemm", N: 8, Runs: 12, Seed: 42, Arch: "both"}

	seq, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := shardReportJSON(t, seq)

	var shards []*ShardResult
	ranges := [][2]int{{0, 5}, {5, 9}, {9, 12}, {3, 7}} // last one overlaps: hedge duplicate
	for _, arch := range []string{"posit", "float"} {
		for _, r := range ranges {
			req := ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: arch, Lo: r[0], Hi: r[1]}
			sh, err := RunShard(context.Background(), req)
			if err != nil {
				t.Fatalf("shard %s[%d,%d): %v", arch, r[0], r[1], err)
			}
			shards = append(shards, sh)
		}
	}
	got, err := AssembleReport(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, shardReportJSON(t, got)) {
		t.Fatalf("assembled report differs from sequential oracle:\nseq: %s\nfab: %s", want, shardReportJSON(t, got))
	}
}

// TestRunShardRecyclesRunState: every run of a shard goes through
// Program.Exec, which hands its memory image and shadow pages back for the
// next run. Once a warm-up shard has filled the free lists, a 16-run posit
// gemm shard must allocate less than one machine image
// (interp.DefaultStackSize) on average. A run path that kept its own
// machine and runtime per worker and dropped them with the shard would
// allocate at least one image per worker, plus its pages.
func TestRunShardRecyclesRunState(t *testing.T) {
	cfg := CampaignConfig{Workload: "polybench/gemm", Runs: 16, Seed: 42}
	req := ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 16}
	shard := func() {
		if _, err := RunShard(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	shard()
	const shards = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range shards {
		shard()
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / shards
	if mean >= interp.DefaultStackSize {
		t.Fatalf("a warm 16-run shard allocates %.2f MiB; want under one %.0f MiB machine image",
			float64(mean)/(1<<20), float64(interp.DefaultStackSize)/(1<<20))
	}
	t.Logf("a warm 16-run shard allocates %.2f MiB", float64(mean)/(1<<20))
}

// TestShardGoldenProbe: Lo == Hi runs only the golden pass and the probe's
// ArchInfo matches what full shards report.
func TestShardGoldenProbe(t *testing.T) {
	cfg := CampaignConfig{Workload: "polybench/gemm", N: 8, Runs: 4, Seed: 7}
	probe, err := RunShard(context.Background(), ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 2, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Results) != 0 {
		t.Fatalf("golden probe returned %d results", len(probe.Results))
	}
	full, err := RunShard(context.Background(), ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Golden.equal(full.Golden) {
		t.Fatalf("probe golden %+v != full-shard golden %+v", probe.Golden, full.Golden)
	}
}

func TestShardRequestValidate(t *testing.T) {
	cfg := CampaignConfig{Workload: "polybench/gemm", Runs: 10, Seed: 1}
	cases := []struct {
		name string
		req  ShardRequest
		ok   bool
	}{
		{"good", ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 10}, true},
		{"version-skew", ShardRequest{Version: ShardVersion + 1, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 1}, false},
		{"bad-arch", ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "both", Lo: 0, Hi: 1}, false},
		{"hi-past-runs", ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 11}, false},
		{"inverted", ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 5, Hi: 4}, false},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestAssembleReportRejects: missing coverage, conflicting duplicates and
// golden skew must all fail loudly — a silent pick would mask a
// determinism violation somewhere in the fleet.
func TestAssembleReportRejects(t *testing.T) {
	cfg := CampaignConfig{Workload: "polybench/gemm", N: 8, Runs: 4, Seed: 3}
	sh, err := RunShard(context.Background(), ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 0, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := AssembleReport(cfg, []*ShardResult{sh}); err == nil {
		t.Fatal("missing run 3 not rejected")
	}

	rest, err := RunShard(context.Background(), ShardRequest{Version: ShardVersion, Config: cfg.Wire(), Arch: "posit", Lo: 3, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleReport(cfg, []*ShardResult{sh, rest}); err != nil {
		t.Fatalf("complete coverage rejected: %v", err)
	}

	skewed := *rest
	skewed.Golden.Candidates++
	if _, err := AssembleReport(cfg, []*ShardResult{sh, &skewed}); err == nil {
		t.Fatal("golden skew not rejected")
	}

	conflict := *rest
	conflict.Results = append([]RunResult(nil), rest.Results...)
	conflict.Results[0].ErrBits++
	conflict.Golden = sh.Golden
	if _, err := AssembleReport(cfg, []*ShardResult{sh, rest, &conflict}); err == nil {
		t.Fatal("conflicting duplicate run not rejected")
	}
}

// TestWireConfigRoundTrip: the −1 MaskedBits sentinel and every other
// result-determining field must survive coordinator→worker serialization.
func TestWireConfigRoundTrip(t *testing.T) {
	cfg := CampaignConfig{
		Workload: "polybench/gemm", N: 8, Arch: "both", Runs: 50, Seed: 99,
		Model:      Model{Kind: MultiBitFlip, FlipBits: 3, BitPos: 7, Ops: ClassArith | ClassLoad, InstID: 4, Occurrence: 2, Rate: 0.5},
		MaskedBits: -1, KeepSchedules: true,
	}
	b, err := json.Marshal(cfg.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireConfig
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	got := w.Campaign()
	if got.MaskedBits != -1 || got.Model != cfg.Model || got.Workload != cfg.Workload ||
		got.Seed != cfg.Seed || got.Runs != cfg.Runs || !got.KeepSchedules {
		t.Fatalf("round trip mangled config: %+v vs %+v", got, cfg)
	}
}
