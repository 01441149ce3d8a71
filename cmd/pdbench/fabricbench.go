package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
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
	// Ring measures compile-cache affinity under membership churn.
	Ring *RingBenchReport `json:"ring,omitempty"`
}

// RingBenchReport quantifies what consistent-hash worker selection buys
// when a fourth worker joins a 3-worker fleet. The moved fractions are
// percentiles over Fleets seeded synthetic fleets and Keys fixed keys (the
// draw TestRingJoinMovesFairShare bounds), so they do not depend on the
// ports one run happens to get. The hit rates come from one live fleet.
type RingBenchReport struct {
	VirtualNodes int `json:"virtual_nodes"`
	Fleets       int `json:"fleets"`
	Keys         int `json:"keys"`
	// MovedFraction: keys whose ring owner changed (fair share 1/4).
	MovedFraction Percentiles `json:"moved_fraction"`
	// ModHashMovedFraction: keys that mod-hash placement over the sorted
	// members (hash % fleet size) would move on the same join.
	ModHashMovedFraction Percentiles `json:"mod_hash_moved_fraction"`
	// OneFleetStaticHitRate: warm re-requests of OneFleetKernels kernels
	// on one live 3-worker fleet, routed by ring ownership;
	// OneFleetChurnHitRate: the same kernels re-requested through the
	// 4-worker ring after the join — only kernels on the moved arcs go cold.
	OneFleetKernels       int     `json:"one_fleet_kernels"`
	OneFleetStaticHitRate float64 `json:"one_fleet_static_hit_rate"`
	OneFleetChurnHitRate  float64 `json:"one_fleet_churn_hit_rate"`
}

// Percentiles summarises a statistic over many draws.
type Percentiles struct {
	P5     float64 `json:"p5"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
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
// Each fleet starts once and serves every one of its campaigns, so
// after the first sample the workers' compile caches are warm, as in a
// long-running fleet. The three fleets take turns (harness.Sample), so
// host noise lands on neighbouring samples of all three.
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

	rep.Ring = ringPlacement()
	if err := liveRingFleet(rep.Ring); err != nil {
		return err
	}
	ring := rep.Ring
	fmt.Fprintf(os.Stderr, "%-26s ring moved %.3f/%.3f/%.3f (p5/median/p95 over %d fleets), mod-hash %.3f/%.3f/%.3f\n",
		"3→4 join", ring.MovedFraction.P5, ring.MovedFraction.Median, ring.MovedFraction.P95, ring.Fleets,
		ring.ModHashMovedFraction.P5, ring.ModHashMovedFraction.Median, ring.ModHashMovedFraction.P95)
	fmt.Fprintf(os.Stderr, "%-26s %5.0f%% static, %5.0f%% after join (one live fleet)\n",
		"cache affinity", ring.OneFleetStaticHitRate*100, ring.OneFleetChurnHitRate*100)

	return writeReport(out, rep)
}

// ringPlacement draws 200 fleets of three members with seeded loopback
// names, joins a fourth, and reports the fraction of 2000 fixed keys whose
// owner moved, under the ring and under mod-hash placement. The draw is
// the one TestRingJoinMovesFairShare bounds to [0.15, 0.35] at p5 and p95.
func ringPlacement() *RingBenchReport {
	const fleets, nKeys = 200, 2000
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("polybench/kernel-%d|8|posit", i)
	}
	rng := rand.New(rand.NewSource(1))
	member := func() string { return fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64512)) }
	moved := make([]float64, fleets)
	modMoved := make([]float64, fleets)
	for f := range moved {
		members := []string{member(), member(), member()}
		before := fabric.NewRing(members)
		after := fabric.NewRing(append(members, member()))
		was, is := before.Members(), after.Members()
		n, nMod := 0, 0
		for _, k := range keys {
			if before.Owner(k) != after.Owner(k) {
				n++
			}
			h := fnv.New64a()
			h.Write([]byte(k))
			if was[h.Sum64()%uint64(len(was))] != is[h.Sum64()%uint64(len(is))] {
				nMod++
			}
		}
		moved[f] = float64(n) / float64(nKeys)
		modMoved[f] = float64(nMod) / float64(nKeys)
	}
	return &RingBenchReport{
		VirtualNodes: fabric.DefaultVirtualNodes, Fleets: fleets, Keys: nKeys,
		MovedFraction: percentiles(moved), ModHashMovedFraction: percentiles(modMoved),
	}
}

// percentiles sorts xs and reads its 5th, 50th and 95th percentiles.
func percentiles(xs []float64) Percentiles {
	sort.Float64s(xs)
	n := len(xs)
	return Percentiles{P5: xs[n*5/100], Median: xs[n/2], P95: xs[n*95/100]}
}

// liveRingFleet measures compile-cache affinity across a membership
// change on one fleet of in-process workers. Distinct synthetic kernels
// are warmed on 3 workers with requests routed by ring ownership; then a
// fourth worker joins, the ring is rebuilt, and every kernel is requested
// once more through the new ring. Kernels off the moved arc land on the
// worker that already compiled them (warm hit). Which kernels move depends
// on the ports this fleet got, so these rates are one draw.
func liveRingFleet(rep *RingBenchReport) error {
	const kernels = 48
	workers := make([]*httptest.Server, 0, 4)
	defer func() {
		for _, ts := range workers {
			ts.Close()
		}
	}()
	addWorker := func() string {
		ts := httptest.NewServer(server.New(server.Config{DefaultTimeout: 30 * time.Second}).Handler())
		workers = append(workers, ts)
		return ts.URL
	}
	urls := []string{addWorker(), addWorker(), addWorker()}

	srcs := make([]string, kernels)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("func main(): i64 { var r: i64 = %d; print(r); return r; }", i*7+1)
	}

	post := func(workerURL, src string) (cached bool, err error) {
		body, err := json.Marshal(server.RunRequest{Source: src})
		if err != nil {
			return false, err
		}
		resp, err := http.Post(workerURL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return false, fmt.Errorf("ring bench: /run on %s: %d: %s", workerURL, resp.StatusCode, b)
		}
		var rr server.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return false, err
		}
		return rr.Cached, nil
	}

	rep.OneFleetKernels = kernels
	ring3 := fabric.NewRing(urls)

	// Cold pass then warm pass on the stable fleet, both ring-routed.
	for _, src := range srcs {
		if _, err := post(ring3.Owner(src), src); err != nil {
			return err
		}
	}
	staticHits := 0
	for _, src := range srcs {
		hit, err := post(ring3.Owner(src), src)
		if err != nil {
			return err
		}
		if hit {
			staticHits++
		}
	}
	rep.OneFleetStaticHitRate = float64(staticHits) / kernels

	// A fourth worker joins; the ring moves only the keys on its arcs.
	urls4 := append(append([]string{}, urls...), addWorker())
	ring4 := fabric.NewRing(urls4)
	churnHits := 0
	for _, src := range srcs {
		hit, err := post(ring4.Owner(src), src)
		if err != nil {
			return err
		}
		if hit {
			churnHits++
		}
	}
	rep.OneFleetChurnHitRate = float64(churnHits) / kernels
	return nil
}
