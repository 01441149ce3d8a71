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
	"time"

	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
	"positdebug/internal/server"
)

// FabricBenchRow is one fleet size's campaign measurement: wall-clock for
// the whole distributed run (dispatch + execution + merge) and the
// resulting per-architecture-run throughput.
type FabricBenchRow struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
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
	// span-batch fetches) on the 3-worker row, in percent over untraced.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
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

// fabricBench measures distributed campaign throughput with 1 vs 3
// in-process pdserve workers, plus the shard-merge latency on its own.
// Workers share this process's cores, so the 3-worker speedup is a lower
// bound for what distinct machines would show — the number reported is
// about fabric overhead (HTTP, scheduling, merge), not linear scaling.
// A traced 3-worker row measures the fleet-observability tax; -strict
// fails the bench if it exceeds maxTraceOverheadPct.
func fabricBench(out, workload string, n, runs, shardSize int, strict bool) error {
	const maxTraceOverheadPct = 5.0
	ccfg := faultinject.CampaignConfig{Workload: workload, N: n, Arch: "posit", Runs: runs, Seed: 42}
	rep := &FabricReport{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workload: workload, N: n,
		Runs: runs, ShardSize: shardSize,
	}

	// campaign runs one whole distributed campaign and reports wall-clock
	// seconds. With tracing, workers run flight recorders and the
	// coordinator collects spans and fetches every request's span batch —
	// the full observability plane, not just the cheap parts.
	campaign := func(nWorkers int, traced bool) (float64, error) {
		scfg := server.Config{DefaultTimeout: 30 * time.Second}
		if traced {
			scfg.FlightRecorder = 256
			scfg.FlightLog = io.Discard
		}
		urls := make([]string, nWorkers)
		servers := make([]*httptest.Server, nWorkers)
		for i := range urls {
			servers[i] = httptest.NewServer(server.New(scfg).Handler())
			urls[i] = servers[i].URL
		}
		defer func() {
			for _, ts := range servers {
				ts.Close()
			}
		}()
		fcfg := fabric.Config{Workers: urls, ShardSize: shardSize}
		var trace *fabric.FleetTrace
		if traced {
			trace = fabric.NewFleetTrace(workload, fmt.Sprint(runs), "bench")
			fcfg.Trace = trace
			fcfg.Progress = fabric.NewProgress()
		}
		co, err := fabric.New(fcfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := co.RunCampaign(context.Background(), ccfg); err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		if traced {
			// The row must measure a real trace, not a silently empty one.
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, "pdbench"); err != nil {
				return 0, err
			}
			if nEv, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
				return 0, fmt.Errorf("traced bench produced an invalid fleet trace: %w", err)
			} else if nEv == 0 {
				return 0, fmt.Errorf("traced bench produced an empty fleet trace")
			}
		}
		return secs, nil
	}

	// Campaigns this small finish in fractions of a second, where
	// scheduler noise swamps the signal; each configuration reports its
	// best of three runs, the standard wall-clock noise filter.
	best := func(nWorkers int, traced bool) (float64, error) {
		bestSecs := 0.0
		for rep := 0; rep < 3; rep++ {
			secs, err := campaign(nWorkers, traced)
			if err != nil {
				return 0, err
			}
			if bestSecs == 0 || secs < bestSecs {
				bestSecs = secs
			}
		}
		return bestSecs, nil
	}

	var baseRate, plainSecs float64
	for _, nWorkers := range []int{1, 3} {
		secs, err := best(nWorkers, false)
		if err != nil {
			return err
		}
		row := FabricBenchRow{
			Name: fmt.Sprintf("campaign/%d-worker", nWorkers), Workers: nWorkers,
			Seconds: secs, RunsPerSec: float64(runs) / secs,
		}
		if nWorkers == 1 {
			baseRate = row.RunsPerSec
			row.Speedup = 1
		} else if baseRate > 0 {
			row.Speedup = row.RunsPerSec / baseRate
			plainSecs = secs
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "%-22s %8.2fs %10.2f runs/s %6.2fx\n", row.Name, row.Seconds, row.RunsPerSec, row.Speedup)
	}

	tracedSecs, err := best(3, true)
	if err != nil {
		return err
	}
	tracedRow := FabricBenchRow{
		Name: "campaign/3-worker-traced", Workers: 3,
		Seconds: tracedSecs, RunsPerSec: float64(runs) / tracedSecs,
	}
	if baseRate > 0 {
		tracedRow.Speedup = tracedRow.RunsPerSec / baseRate
	}
	rep.Rows = append(rep.Rows, tracedRow)
	if plainSecs > 0 {
		rep.TraceOverheadPct = (tracedSecs - plainSecs) / plainSecs * 100
	}
	fmt.Fprintf(os.Stderr, "%-22s %8.2fs %10.2f runs/s %6.2fx (trace overhead %+.1f%%)\n",
		tracedRow.Name, tracedRow.Seconds, tracedRow.RunsPerSec, tracedRow.Speedup, rep.TraceOverheadPct)
	if strict && rep.TraceOverheadPct > maxTraceOverheadPct {
		return fmt.Errorf("fleet tracing costs %.1f%% wall-clock (limit %.0f%%)", rep.TraceOverheadPct, maxTraceOverheadPct)
	}

	// Merge latency: shards already in hand, how long until report bytes.
	var shards []*faultinject.ShardResult
	for lo := 0; lo < runs; lo += shardSize {
		hi := lo + shardSize
		if hi > runs {
			hi = runs
		}
		sh, err := faultinject.RunShard(context.Background(), faultinject.ShardRequest{
			Version: faultinject.ShardVersion, Config: ccfg.Wire(), Arch: "posit", Lo: lo, Hi: hi,
		})
		if err != nil {
			return err
		}
		shards = append(shards, sh)
	}
	const mergeIters = 20
	start := time.Now()
	for i := 0; i < mergeIters; i++ {
		if _, err := faultinject.AssembleReport(ccfg, shards); err != nil {
			return err
		}
	}
	rep.MergeMS = float64(time.Since(start).Microseconds()) / 1000 / mergeIters
	fmt.Fprintf(os.Stderr, "%-22s %8.3fms per merge (%d shards)\n", "merge", rep.MergeMS, len(shards))

	rep.Ring = ringPlacement()
	if err := liveRingFleet(rep.Ring); err != nil {
		return err
	}
	ring := rep.Ring
	fmt.Fprintf(os.Stderr, "%-22s ring moved %.3f/%.3f/%.3f (p5/median/p95 over %d fleets), mod-hash %.3f/%.3f/%.3f\n",
		"3→4 join", ring.MovedFraction.P5, ring.MovedFraction.Median, ring.MovedFraction.P95, ring.Fleets,
		ring.ModHashMovedFraction.P5, ring.ModHashMovedFraction.Median, ring.ModHashMovedFraction.P95)
	fmt.Fprintf(os.Stderr, "%-22s %5.0f%% static, %5.0f%% after join (one live fleet)\n",
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
		before := fabric.NewRing(members, fabric.DefaultVirtualNodes)
		after := fabric.NewRing(append(members, member()), fabric.DefaultVirtualNodes)
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
	ring3 := fabric.NewRing(urls, fabric.DefaultVirtualNodes)

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
	ring4 := fabric.NewRing(urls4, fabric.DefaultVirtualNodes)
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
