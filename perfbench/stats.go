package main

import (
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer is one lucky or unlucky request.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank, and whether at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// samplesFor is the sample count at which percentile p first has minBeyond
// samples beyond it.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if _, ok := percentile(make([]float64, n), p); ok {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tally counts operations attempted and those that failed, were refused or
// answered wrongly. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	examples  []string
}

// add records one attempted operation; err non-nil marks it failed.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.examples) < 5 {
			t.examples = append(t.examples, err.Error())
		}
	}
}

// errorRate is the per-layer error_rate row.
func (t *tally) errorRate() metric {
	return metric{float64(t.failed) / float64(t.attempted), "ratio"}
}

// heapSampler tracks the peak live heap (as marked by the last completed
// GC) of each pass of a measurement, read from runtime/metrics without
// stopping the world. Unlike heap in use, the live heap does not depend on
// how much garbage the GC pacer lets pile up before a cycle. A run reports
// the median of its passes' peaks: whether a collection happens to mark at
// the moment of a pass's true peak is chance, and the highest of all
// passes would keep the luckiest one.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64 // since the last lap
	peaks []float64
}

const heapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage so every measurement starts from the
// same heap, then samples every 5 ms until stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// lap ends a pass: it keeps the pass's peak and starts the next. Nil-safe,
// for unmeasured passes.
func (h *heapSampler) lap() {
	if h == nil {
		return
	}
	h.observe()
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// medianMB stops the sampler, waits for it, and returns the median of the
// passes' peaks in MiB.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// allocKB returns the kibibytes fn allocates on the heap.
func allocKB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// setupReps is how many times a run sets its workload up. One set-up
// takes a fraction of a millisecond to a few milliseconds, so one reading
// is mostly scheduling noise.
const setupReps = 301

// timeSetup times setupReps set-ups, each torn down again, and returns
// the median in seconds of the process's CPU time, scaled, with one more
// instance set up untimed for the run. Each timed set-up starts from a
// collected heap, so none pays for its predecessors' garbage. The timed
// series runs on one P: with two, the runtime's idle threads spin while a
// set-up waits on loopback, and that spinning doubled the CPU time and
// tripled its spread from run to run. The run's instance is set up at the
// process's own GOMAXPROCS, which server.New sizes its admission by.
//
// The host runs either fast or slow for a whole series of set-ups, and
// set-up took up to 1.6 times as long when slow. So the median is scaled
// by refSetupNominal over the median CPU time of a reference set-up, timed
// just before each set-up: refServe, a standard-library HTTP server on
// loopback, which no change to the code under test changes. Over six or
// seven runs per workload, set-up time over the reference's ranged by 7%
// on campaign and 13% on serve; over the calibrator's burst, by 54% and
// 30%.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var times, refs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		ref, err := timeRefServe()
		if err != nil {
			return zero, 0, err
		}
		refs = append(refs, ref.Seconds())
		t0 := workCPU()
		v, err := setup()
		d := workCPU() - t0
		if err != nil {
			return zero, 0, err
		}
		times = append(times, d.Seconds())
		teardown(v)
	}
	runtime.GOMAXPROCS(prev)
	v, err := setup()
	return v, median(times) * refSetupNominal.Seconds() / median(refs), err
}

// refSetupNominal is about refServe's CPU time on the machine the bounds
// were set on (2 vCPUs of a KVM guest on a 2.1 GHz Xeon, fast mode). Like
// refNominal, it sets units only.
const refSetupNominal = 150 * time.Microsecond

// timeRefServe runs refServe twice and returns the second's CPU time; the
// first refills what the preceding collection emptied.
func timeRefServe() (time.Duration, error) {
	if err := refServe(); err != nil {
		return 0, err
	}
	t0 := workCPU()
	err := refServe()
	return workCPU() - t0, err
}

// refServe is the reference set-up: it starts a standard-library HTTP
// server on loopback, asks it once, shuts it down and waits for it.
func refServe() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns http.ErrServerClosed once closed below
	}()
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + l.Addr().String() + "/readyz")
	if err == nil {
		resp.Body.Close()
	}
	tr.CloseIdleConnections()
	hs.Close()
	<-done
	return err
}
