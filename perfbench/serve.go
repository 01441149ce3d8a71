package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"positdebug/internal/server"
)

// serveClients is the closed loop's client count: each client waits for
// its reply before sending again, as pdcoord and batch clients do. It
// matches the two cores the benchmark is sized for.
const serveClients = 2

// servePassesMin is the least number of timed passes a serve run makes.
const servePassesMin = 3

// serveTail is the percentile reported as cpu_tail_ms on serve.
const serveTail = 99

type serveEnv struct {
	ls      *liveServer
	meter   *handlerMeter
	catalog []catalogEntry
	progs   []program
	bodies  [][2][]byte // per entry: shadow and baseline request bodies
	client  *http.Client
}

func setupServe(meter *handlerMeter) (*serveEnv, error) {
	env := &serveEnv{catalog: serveCatalog(), meter: meter}
	for _, c := range env.catalog {
		p, err := catalogProgram(c)
		if err != nil {
			return nil, err
		}
		var bodies [2][]byte
		for i, baseline := range []bool{false, true} {
			b, err := json.Marshal(server.RunRequest{Source: p.Src, Baseline: baseline})
			if err != nil {
				return nil, err
			}
			bodies[i] = b
		}
		env.progs = append(env.progs, p)
		env.bodies = append(env.bodies, bodies)
	}
	ls, err := startServer(meter.wrap)
	if err != nil {
		return nil, err
	}
	env.ls = ls
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return env, nil
}

func (env *serveEnv) close() {
	env.client.CloseIdleConnections()
	env.ls.close()
}

// serveObs is one answered (or refused) request.
type serveObs struct {
	req        serveRequest
	pass       int
	start, end time.Time
	costMS     float64 // the handler's scaled CPU time
	status     int
	resp       server.RunResponse
	err        error
}

// post sends one request and decodes the answer.
func (env *serveEnv) post(req serveRequest, id, parent int64) serveObs {
	body := env.bodies[req.Entry][0]
	if req.Baseline {
		body = env.bodies[req.Entry][1]
	}
	o := serveObs{req: req}
	hr, err := http.NewRequest(http.MethodPost, env.ls.url+"/run", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	if parent != 0 {
		hr.Header.Set(parentHeader, strconv.FormatInt(parent, 10))
	}
	o.start = time.Now()
	resp, err := env.client.Do(hr)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(data, &o.resp)
		} else if err == nil {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	o.end = time.Now()
	o.err = err
	return o
}

// requestHeader carries the benchmark's number for a request, so the
// handler middleware can report the request's CPU time.
const requestHeader = "X-Perfbench-Request"

// handlerMeter is the serve workload's middleware. It times each /run
// request's handler in CPU time, with the handler's goroutine locked to
// its thread, and, while a tracer is set, records a span under the client
// span that sent the request.
type handlerMeter struct {
	tr  atomic.Pointer[tracer]
	mu  sync.Mutex
	cpu map[int64]time.Duration // by request number
}

func (hm *handlerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		if err != nil || r.URL.Path != "/run" {
			h.ServeHTTP(w, r)
			return
		}
		sp := hm.tr.Load().start("server.handler", parseParent(r.Header.Get(parentHeader)))
		runtime.LockOSThread()
		t0 := threadCPU()
		h.ServeHTTP(w, r)
		d := threadCPU() - t0
		runtime.UnlockOSThread()
		sp.end()
		hm.mu.Lock()
		hm.cpu[id] = d
		hm.mu.Unlock()
	})
}

// take returns and forgets request id's handler CPU time. The middleware
// records it once the handler returns, which can be just after the client
// has read the whole response, so take waits for it, up to a second.
func (hm *handlerMeter) take(id int64) time.Duration {
	for wait := time.Duration(0); ; wait += 50 * time.Microsecond {
		hm.mu.Lock()
		d, ok := hm.cpu[id]
		delete(hm.cpu, id)
		hm.mu.Unlock()
		if ok || wait > time.Second {
			return d
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// serveSegment is what servePasses measured.
type serveSegment struct {
	obs      []serveObs
	next     int       // the pass number to continue from
	rates    []float64 // requests per scaled CPU second of each pass
	maxQueue int64     // deepest admission queue polled (traced segments)
}

// servePasses runs whole passes of the request draw, from pass firstPass,
// each with serveClients closed-loop clients, until d has elapsed,
// minPasses passes are done and minSamples requests answered. Each pass's
// CPU time is scaled by cal and its peak live heap kept by heap, if
// non-nil. Traced segments also poll the server's queue depth.
func servePasses(env *serveEnv, cal *calibrator, heap *heapSampler, seed int64, firstPass int, d time.Duration, minPasses, minSamples int, tr *tracer) serveSegment {
	seg := serveSegment{next: firstPass}
	var maxQueue atomic.Int64
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		if tr == nil {
			return
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				if q := env.ls.srv.Stats().QueueDepth; q > maxQueue.Load() {
					maxQueue.Store(q)
				}
			}
		}
	}()
	start := time.Now()
	for seg.next == firstPass || time.Since(start) < d || seg.next-firstPass < minPasses || len(seg.obs) < minSamples {
		pass := seg.next
		reqs := drawRequests(seed, pass, len(env.catalog))
		obs := make([]serveObs, len(reqs))
		var claimed atomic.Int64
		c0, k0 := workCPU(), cal.spent()
		var wg sync.WaitGroup
		wg.Add(serveClients)
		for c := 0; c < serveClients; c++ {
			go func() {
				defer wg.Done()
				for {
					i := claimed.Add(1) - 1
					if int(i) >= len(reqs) {
						return
					}
					sp := tr.start("client.request", 0)
					id := int64(pass)<<32 | i
					obs[i] = env.post(reqs[i], id, sp.id())
					sp.end()
					obs[i].pass = pass
					if obs[i].err == nil {
						obs[i].costMS = ms(env.meter.take(id))
					}
				}
			}()
		}
		wg.Wait()
		cpu := workCPU() - c0 - (cal.spent() - k0)
		f := cal.lap()
		heap.lap()
		for i := range obs {
			obs[i].costMS *= f
		}
		seg.obs = append(seg.obs, obs...)
		seg.rates = append(seg.rates, float64(len(reqs))/(cpu.Seconds()*f))
		seg.next++
	}
	close(stopPoll)
	<-pollDone
	seg.maxQueue = maxQueue.Load()
	return seg
}

func runServe(rc runConfig) (*measurement, error) {
	meter := &handlerMeter{cpu: map[int64]time.Duration{}}
	env, setupS, err := timeSetup(func() (*serveEnv, error) { return setupServe(meter) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	cal := startCalibrator()
	defer cal.close()

	m := &measurement{tally: &tally{}, metrics: map[string]metric{}}
	var all []serveObs
	if !rc.trace {
		// One untimed pass fills the compile cache and warms the server.
		warm := servePasses(env, cal, nil, rc.seed, 0, 0, 1, 0, nil)
		heap := startHeapSampler()
		seg := servePasses(env, cal, heap, rc.seed, warm.next, rc.seconds, servePassesMin, samplesFor(serveTail), nil)
		peak := heap.medianMB()
		all = append(warm.obs, seg.obs...)
		var cost []float64
		for _, o := range seg.obs {
			cost = append(cost, o.costMS)
		}
		tail, _ := percentile(cost, serveTail)
		m.metrics[mSetup] = metric{setupS, "s"}
		m.metrics[mThroughput] = metric{median(seg.rates), "1/s"}
		m.metrics[mP50] = metric{median(cost), "ms"}
		m.metrics[mTail] = metric{tail, "ms"}
		m.metrics[mPeakHeap] = metric{peak, "MB"}
		m.notes = append(m.notes, fmt.Sprintf("serve: %d requests in %d passes from %d closed-loop clients, p%d over %d samples",
			len(seg.obs), len(seg.rates), serveClients, serveTail, len(cost)))
	} else {
		half := rc.seconds / 2
		untraced := servePasses(env, cal, nil, rc.seed, 0, half, 1, 0, nil)
		m.tracer = newTracer()
		env.meter.tr.Store(m.tracer)
		traced := servePasses(env, cal, nil, rc.seed, untraced.next, half, 1, 0, m.tracer)
		env.meter.tr.Store(nil)
		all = append(untraced.obs, traced.obs...)
		st := env.ls.srv.Stats()
		shed := 0
		for _, o := range all {
			if o.status == http.StatusTooManyRequests {
				shed++
			}
		}
		ccfg := drawCampaigns(rc.seed)[0]
		if err := probeLayers(serveProbePrograms(env, rc.seed), ccfg, m.metrics); err != nil {
			return nil, err
		}
		if err := probeFabric(ccfg, m.metrics); err != nil {
			return nil, err
		}
		m.metrics["server.cache_hit_ratio"] = metric{float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses), "ratio"}
		m.metrics["server.queue_depth_max"] = metric{float64(traced.maxQueue), "count"}
		m.metrics["server.shed"] = metric{float64(shed), "count"}
		m.metrics["trace.overhead_pct"] = metric{100 * (median(untraced.rates)/median(traced.rates) - 1), "pct"}
	}
	if err := checkServe(m.tally, env, all); err != nil {
		return nil, err
	}
	if rc.trace {
		m.metrics["error_rate"] = m.tally.errorRate()
	}
	return m, nil
}

// serveProbePrograms picks the per-layer probe inputs from the serve draw:
// the first distinct catalog entries of the first pass.
func serveProbePrograms(env *serveEnv, seed int64) []program {
	seen := map[int]bool{}
	var out []program
	for _, r := range drawRequests(seed, 0, len(env.catalog)) {
		if !seen[r.Entry] {
			seen[r.Entry] = true
			out = append(out, env.progs[r.Entry])
		}
		if len(out) == probePrograms {
			break
		}
	}
	return out
}

// checkServe counts every request and fails those refused, failed or
// answered wrongly. Expected values and step counts come from the
// reference tree-walker run on the served shadow configuration; suite
// programs must report one of their hand-written expected kinds.
func checkServe(t *tally, env *serveEnv, all []serveObs) error {
	refs := map[int]reference{}
	for _, o := range all {
		if _, ok := refs[o.req.Entry]; ok {
			continue
		}
		ref, err := referenceRun(env.progs[o.req.Entry].Src, servedShadowConfig(nil))
		if err != nil {
			return fmt.Errorf("reference %s: %w", env.progs[o.req.Entry].Name, err)
		}
		refs[o.req.Entry] = ref
	}
	for _, o := range all {
		p := env.progs[o.req.Entry]
		if o.err != nil {
			t.add(fmt.Errorf("%s: %v", p.Name, o.err))
			continue
		}
		t.add(serveMismatch(p, refs[o.req.Entry], o.req.Baseline, o.resp))
	}
	return nil
}

// serveMismatch compares one response with its expected answer.
func serveMismatch(p program, ref reference, baseline bool, resp server.RunResponse) error {
	if want := "0x" + strconv.FormatUint(ref.value, 16); resp.Value != want {
		return fmt.Errorf("%s: value %s, want %s", p.Name, resp.Value, want)
	}
	wantSteps := ref.shadowSteps
	if baseline {
		wantSteps = ref.baseSteps
	}
	if resp.Steps != wantSteps {
		return fmt.Errorf("%s (baseline %v): %d steps, want %d", p.Name, baseline, resp.Steps, wantSteps)
	}
	if baseline {
		if len(resp.Detections) != 0 {
			return fmt.Errorf("%s: baseline run reported detections %v", p.Name, resp.Detections)
		}
		return nil
	}
	if len(p.Expect) == 0 {
		return nil
	}
	for _, k := range p.Expect {
		if resp.Detections[k.String()] > 0 {
			return nil
		}
	}
	return fmt.Errorf("%s: detections %v include none of %v", p.Name, resp.Detections, p.Expect)
}
