package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/server"
)

// liveServer is an in-process pdserve instance on a loopback port.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer starts server.New(server.Config{}) on loopback, with wrap (if
// non-nil) around its handler, and returns once /readyz answers.
func startServer(wrap func(http.Handler) http.Handler) (*liveServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(l) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(ls.url + "/readyz")
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ls.close()
		return nil, fmt.Errorf("server not ready: %s", resp.Status)
	}
	return ls, nil
}

// close shuts the server down and waits for its serve loop to return.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		ls.hs.Close()
	}
	<-ls.done
}

// shardTimer is the timing middleware around each worker's handler: it
// counts shard attempts and times each one.
type shardTimer struct {
	on       atomic.Bool // record only while set
	tr       atomic.Pointer[tracer]
	parent   atomic.Int64 // span of the campaign in flight
	campaign atomic.Int64 // sequence number of the campaign in flight
	mu       sync.Mutex
	shards   []shardSample
}

type shardSample struct {
	campaign int64
	ms       float64
}

func (st *shardTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.on.Load() || r.URL.Path != "/campaign/shard" {
			h.ServeHTTP(w, r)
			return
		}
		c := st.campaign.Load()
		sp := st.tr.Load().start("server.campaign_shard", st.parent.Load())
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.end()
		st.mu.Lock()
		st.shards = append(st.shards, shardSample{campaign: c, ms: ms(d)})
		st.mu.Unlock()
	})
}

// fabricShardSize is fabric.Config's default ShardSize: runs per shard.
const fabricShardSize = 16

// fleet is two in-process workers behind one fabric coordinator.
type fleet struct {
	workers []*liveServer
	coord   *fabric.Coordinator
}

const fleetWorkers = 2

func startFleet(st *shardTimer) (*fleet, error) {
	f := &fleet{}
	var wrap func(http.Handler) http.Handler
	if st != nil {
		wrap = st.wrap
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		w, err := startServer(wrap)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.url)
	}
	c, err := fabric.New(fabric.Config{Workers: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	return f, nil
}

func (f *fleet) close() {
	for _, w := range f.workers {
		w.close()
	}
}

// campaignObs is one completed campaign: which config, how long in wall
// time and in CPU time (scaled once its pass is done), and a digest of its
// report JSON.
type campaignObs struct {
	cfg    int
	seq    int64
	ms     float64
	costMS float64
	digest [32]byte
	err    error
}

func reportDigest(rep *faultinject.Report) ([32]byte, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// campaignPass runs every campaign of the draw once through the fabric,
// timing each in the process's CPU time net of cal's bursts (unscaled).
// Each campaign starts from a collected heap, so its cost does not depend
// on which campaigns ran before it.
// seq numbers campaigns across passes so the middleware can attribute
// shards to them.
func campaignPass(f *fleet, cfgs []faultinject.CampaignConfig, cal *calibrator, st *shardTimer, tr *tracer, seq *int64) []campaignObs {
	obs := make([]campaignObs, 0, len(cfgs))
	for i, cfg := range cfgs {
		root := tr.start("fabric.RunCampaign", 0)
		if st != nil {
			st.tr.Store(tr)
			st.parent.Store(root.id())
			st.campaign.Store(*seq)
		}
		runtime.GC()
		t0, c0, k0 := time.Now(), workCPU(), cal.spent()
		rep, err := f.coord.RunCampaign(context.Background(), cfg)
		cpu := workCPU() - c0 - (cal.spent() - k0)
		d := time.Since(t0)
		root.end()
		o := campaignObs{cfg: i, seq: *seq, ms: ms(d), costMS: ms(cpu), err: err}
		*seq++
		if err == nil {
			o.digest, o.err = reportDigest(rep)
		}
		obs = append(obs, o)
	}
	return obs
}

// referenceCampaigns computes each config's expected report the slow,
// independent way: faultinject.RunCampaign in this process on the
// tree-walking reference interpreter, one goroutine.
func referenceCampaigns(cfgs []faultinject.CampaignConfig) ([][32]byte, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	out := make([][32]byte, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Backend = backend.Treewalk
		rep, err := faultinject.RunCampaign(cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", cfg.Workload, err)
		}
		if out[i], err = reportDigest(rep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkCampaigns counts every campaign and fails those that errored or
// whose merged report differs from the reference.
func checkCampaigns(t *tally, cfgs []faultinject.CampaignConfig, obs []campaignObs, ref [][32]byte) {
	for _, o := range obs {
		switch {
		case o.err != nil:
			t.add(fmt.Errorf("campaign %s seed %d: %v", cfgs[o.cfg].Workload, cfgs[o.cfg].Seed, o.err))
		case o.digest != ref[o.cfg]:
			t.add(fmt.Errorf("campaign %s seed %d: merged report differs from sequential tree-walker report",
				cfgs[o.cfg].Workload, cfgs[o.cfg].Seed))
		default:
			t.add(nil)
		}
	}
}

// campaignTail is the percentile reported as cpu_tail_ms on campaign.
const campaignTail = 90

func runCampaign(rc runConfig) (*measurement, error) {
	cfgs := drawCampaigns(rc.seed)
	var st *shardTimer
	if rc.trace {
		st = &shardTimer{}
	}
	f, setupS, err := timeSetup(func() (*fleet, error) { return startFleet(st) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	cal := startCalibrator()
	defer cal.close()

	var all []campaignObs
	var seq int64
	// segment runs whole passes and returns each pass's rate: fault-injected
	// runs per scaled second of the process's CPU time.
	segment := func(d time.Duration, tr *tracer, minSamples int, heap *heapSampler) []float64 {
		var rates []float64
		start := len(all)
		passLoop(d, func(int) bool { return len(all)-start >= minSamples }, func(int) error {
			obs := campaignPass(f, cfgs, cal, st, tr, &seq)
			scale := cal.lap()
			heap.lap()
			var cpu float64
			for i := range obs {
				cpu += obs[i].costMS
				obs[i].costMS *= scale
			}
			all = append(all, obs...)
			rates = append(rates, float64(len(obs)*2*campaignRuns)/(cpu/1000*scale))
			return nil
		})
		return rates
	}

	m := &measurement{tally: &tally{}, metrics: map[string]metric{}}
	if !rc.trace {
		// One untimed pass warms the workers' sessions and connections.
		segment(0, nil, 0, nil)
		warm := len(all)
		heap := startHeapSampler()
		rates := segment(rc.seconds, nil, samplesFor(campaignTail), heap)
		peak := heap.medianMB()
		var cost []float64
		for _, o := range all[warm:] {
			cost = append(cost, o.costMS)
		}
		tail, _ := percentile(cost, campaignTail)
		m.metrics[mSetup] = metric{setupS, "s"}
		m.metrics[mThroughput] = metric{median(rates), "1/s"}
		m.metrics[mP50] = metric{median(cost), "ms"}
		m.metrics[mTail] = metric{tail, "ms"}
		m.metrics[mPeakHeap] = metric{peak, "MB"}
		m.notes = append(m.notes, fmt.Sprintf("campaign: %d campaigns of %d runs in %d passes, p%d over %d samples",
			len(cost), 2*campaignRuns, len(rates), campaignTail, len(cost)))
	} else {
		half := rc.seconds / 2
		untraced := segment(half, nil, 0, nil)
		first := len(all)
		st.on.Store(true)
		m.tracer = newTracer()
		traced := segment(half, m.tracer, 0, nil)
		st.on.Store(false)
		progs, err := campaignProbePrograms(cfgs)
		if err != nil {
			return nil, err
		}
		if err := probeLayers(progs, cfgs[0], m.metrics); err != nil {
			return nil, err
		}
		for k, v := range fabricRows(st, all[first:], cfgs) {
			m.metrics[k] = v
		}
		m.metrics["trace.overhead_pct"] = metric{100 * (median(untraced)/median(traced) - 1), "pct"}
	}

	ref, err := referenceCampaigns(cfgs)
	if err != nil {
		return nil, err
	}
	checkCampaigns(m.tally, cfgs, all, ref)
	if rc.trace {
		m.metrics["error_rate"] = m.tally.errorRate()
	}
	return m, nil
}

// fabricRows derives the worker-side campaign rows from the timing
// middleware: shard time, the share of each campaign's wall time outside
// its slowest shard (dispatch, HTTP, JSON and merge on the critical path),
// and shard attempts per shard the coordinator had to complete.
func fabricRows(st *shardTimer, obs []campaignObs, cfgs []faultinject.CampaignConfig) map[string]metric {
	st.mu.Lock()
	defer st.mu.Unlock()
	var shardMS []float64
	slowest := map[int64]float64{}
	for _, s := range st.shards {
		shardMS = append(shardMS, s.ms)
		slowest[s.campaign] = math.Max(slowest[s.campaign], s.ms)
	}
	var overhead []float64
	shards := 0
	for _, o := range obs {
		overhead = append(overhead, 100*(o.ms-slowest[o.seq])/o.ms)
		arches, _ := cfgs[o.cfg].EffectiveArches()
		shards += len(arches) * ((cfgs[o.cfg].EffectiveRuns() + fabricShardSize - 1) / fabricShardSize)
	}
	return map[string]metric{
		"server.shard_ms":           {median(shardMS), "ms"},
		"fabric.overhead_pct":       {median(overhead), "pct"},
		"fabric.attempts_per_shard": {float64(len(st.shards)) / float64(shards), "ratio"},
	}
}

// fabricProbeCampaigns is how many times probeFabric runs its campaign.
const fabricProbeCampaigns = 3

// probeFabric runs the probe campaign through a fresh two-worker fleet
// with the timing middleware on: the fabric rows for workloads that do not
// run campaigns themselves.
func probeFabric(ccfg faultinject.CampaignConfig, out map[string]metric) error {
	st := &shardTimer{}
	st.on.Store(true)
	f, err := startFleet(st)
	if err != nil {
		return err
	}
	defer f.close()
	cfgs := make([]faultinject.CampaignConfig, fabricProbeCampaigns)
	for i := range cfgs {
		cfgs[i] = ccfg
	}
	var seq int64
	obs := campaignPass(f, cfgs, nil, st, nil, &seq)
	for _, o := range obs {
		if o.err != nil {
			return o.err
		}
	}
	for k, v := range fabricRows(st, obs, cfgs) {
		out[k] = v
	}
	return nil
}

// campaignProbePrograms picks the per-layer probe inputs from the campaign
// draw: the first two campaigns' kernels at campaign size, posit and f64.
func campaignProbePrograms(cfgs []faultinject.CampaignConfig) ([]program, error) {
	var out []program
	for _, cfg := range cfgs[:probePrograms/2] {
		_, n, err := faultinject.ResolveWorkload(cfg.Workload, cfg.N)
		if err != nil {
			return nil, err
		}
		for _, arch := range []string{"posit", "f64"} {
			p, err := kernelProgram(kernelSpec{Kernel: strings.TrimPrefix(cfg.Workload, "polybench/"), Arch: arch, N: n})
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}
