package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/obs"
	"positdebug/internal/server"
)

// FabricBenchRow is one fleet size's campaign measurement: wall-clock for
// the whole distributed run (dispatch + execution + merge) and the
// resulting per-architecture-run throughput.
type FabricBenchRow struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// Seconds is the median over fabricReps interleaved campaigns, and
	// SpreadPct their quartile spread over that median.
	Seconds    float64 `json:"seconds"`
	SpreadPct  float64 `json:"spread_pct"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// Speedup is this row's throughput over the 1-worker row's.
	Speedup float64 `json:"speedup_vs_1_worker"`
}

// FabricReport is the file format of BENCH_fabric.json.
type FabricReport struct {
	Provenance
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workload   string           `json:"workload"`
	N          int              `json:"n"`
	Runs       int              `json:"runs"`
	ShardSize  int              `json:"shard_size"`
	Rows       []FabricBenchRow `json:"rows"`
	// TraceOverheadPct is the wall-clock cost of full fleet tracing
	// (coordinator span collection + worker flight recorders + per-request
	// span-batch fetches) on the 3-worker fleet: the median, over
	// fabricReps untraced/traced campaign pairs run back to back, of each
	// pair's traced-over-untraced excess in percent.
	// TraceOverheadSpreadPct is the quartile spread of those per-pair
	// figures, in percentage points.
	TraceOverheadPct       float64 `json:"trace_overhead_pct"`
	TraceOverheadSpreadPct float64 `json:"trace_overhead_spread_pct"`
	// MergeMS is the merged-report latency alone: assembling the final
	// report from already-fetched shard results (the coordinator's
	// critical section after the last worker answers).
	MergeMS float64 `json:"merge_ms"`
}

// The -fabric campaign: production shard size, and enough runs that
// per-shard fixed costs don't masquerade as overhead. fabricReps is how
// many interleaved campaigns each fleet runs.
const (
	fabricRuns      = 240
	fabricShardSize = 16
	fabricReps      = 41
)

// fabricBench measures distributed campaign throughput with 1 vs 3
// in-process pdserve workers, plus the shard-merge latency on its own.
// Workers share this process's cores, so the 3-worker speedup is a lower
// bound for what distinct machines would show — the number reported is
// about fabric overhead (HTTP, scheduling, merge), not linear scaling.
// A traced 3-worker fleet measures the fleet-observability tax; -strict
// fails the bench if it exceeds maxTraceOverheadPct.
//
// Each fleet starts once and serves every one of its campaigns, as a
// long-running fleet would. The three fleets take turns (harness.Sample),
// so host noise lands on neighbouring samples of all three.
func fabricBench(out string, strict bool) error {
	const maxTraceOverheadPct = 5.0
	workload := "polybench/" + benchKernel
	ccfg := faultinject.CampaignConfig{Workload: workload, N: benchN, Arch: "posit", Runs: fabricRuns, Seed: 42}
	rep := &FabricReport{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workload: workload, N: benchN,
		Runs: fabricRuns, ShardSize: fabricShardSize,
	}

	// fleet starts nWorkers in-process workers. With tracing, workers run
	// flight recorders and every campaign collects spans and fetches every
	// request's span batch — the full observability plane, not just the
	// cheap parts. Each traced campaign's trace is kept for validation.
	var traces []*fabric.FleetTrace
	var servers []*httptest.Server
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	fleet := func(nWorkers int, traced bool) func() error {
		scfg := server.Config{DefaultTimeout: 30 * time.Second}
		if traced {
			scfg.FlightRecorder = 256
			scfg.FlightLog = io.Discard
		}
		urls := make([]string, nWorkers)
		for i := range urls {
			ts := httptest.NewServer(server.New(scfg).Handler())
			servers = append(servers, ts)
			urls[i] = ts.URL
		}
		return func() error {
			fcfg := fabric.Config{Workers: urls, ShardSize: fabricShardSize}
			if traced {
				trace := fabric.NewFleetTrace(workload, fmt.Sprint(fabricRuns), "bench")
				traces = append(traces, trace)
				fcfg.Trace = trace
				fcfg.Progress = fabric.NewProgress()
			}
			co, err := fabric.New(fcfg)
			if err != nil {
				return err
			}
			_, err = co.RunCampaign(context.Background(), ccfg)
			return err
		}
	}
	samples, err := harness.Sample(fabricReps, fleet(1, false), fleet(3, false), fleet(3, true))
	if err != nil {
		return err
	}
	// The traced rows must measure real traces, not silently empty ones.
	for _, trace := range traces {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, "pdbench"); err != nil {
			return err
		}
		if nEv, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("traced bench produced an invalid fleet trace: %w", err)
		} else if nEv == 0 {
			return fmt.Errorf("traced bench produced an empty fleet trace")
		}
	}

	var baseRate float64
	for i, row := range []FabricBenchRow{
		{Name: "campaign/1-worker", Workers: 1},
		{Name: "campaign/3-worker", Workers: 3},
		{Name: "campaign/3-worker-traced", Workers: 3},
	} {
		q1, med, q3 := harness.Quartiles(samples[i])
		row.Seconds, row.SpreadPct = med, 100*(q3-q1)/med
		row.RunsPerSec = fabricRuns / med
		if i == 0 {
			baseRate = row.RunsPerSec
		}
		row.Speedup = row.RunsPerSec / baseRate
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "%-26s %8.3fs (spread %4.1f%%) %10.2f runs/s %6.2fx\n",
			row.Name, row.Seconds, row.SpreadPct, row.RunsPerSec, row.Speedup)
	}
	excess := make([]float64, fabricReps)
	for r := range excess {
		excess[r] = 100 * (samples[2][r]/samples[1][r] - 1)
	}
	q1, med, q3 := harness.Quartiles(excess)
	rep.TraceOverheadPct, rep.TraceOverheadSpreadPct = med, q3-q1
	fmt.Fprintf(os.Stderr, "%-26s %+7.1f%% (median of %d pairs, quartile spread %.1f points)\n",
		"trace overhead", med, fabricReps, q3-q1)
	if strict && rep.TraceOverheadPct > maxTraceOverheadPct {
		return fmt.Errorf("fleet tracing costs %.1f%% wall-clock (limit %.0f%%)", rep.TraceOverheadPct, maxTraceOverheadPct)
	}

	// Merge latency: shards already in hand, how long until report bytes.
	var shards []*faultinject.ShardResult
	for lo := 0; lo < fabricRuns; lo += fabricShardSize {
		sh, err := faultinject.RunShard(context.Background(), faultinject.ShardRequest{
			Version: faultinject.ShardVersion, Config: ccfg.Wire(), Arch: "posit",
			Lo: lo, Hi: min(lo+fabricShardSize, fabricRuns),
		})
		if err != nil {
			return err
		}
		shards = append(shards, sh)
	}
	merge := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := faultinject.AssembleReport(ccfg, shards); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.MergeMS = float64(merge.NsPerOp()) / 1e6
	fmt.Fprintf(os.Stderr, "%-26s %8.3fms per merge (%d shards)\n", "merge", rep.MergeMS, len(shards))

	return writeReport(out, rep)
}
