package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"positdebug/internal/server"
	"positdebug/internal/workloads"

	positdebug "positdebug"
)

// ServeScenario is one serve-path measurement: a fixed request replayed
// Requests times at the given concurrency against an in-process server.
type ServeScenario struct {
	Name        string  `json:"name"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	ReqPerSec   float64 `json:"requests_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// ServeReport is the file format of BENCH_serve.json.
type ServeReport struct {
	Provenance
	Go         string          `json:"go"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Scenarios  []ServeScenario `json:"scenarios"`
}

// serveBench measures the HTTP service end to end — admission, compile
// cache, shadow execution, response encoding — over a loopback listener,
// and writes the report to outPath ("" = stdout).
func serveBench(outPath string, requests int) error {
	k, ok := workloads.KernelByName("gemm")
	if !ok {
		return fmt.Errorf("no gemm kernel")
	}
	psrc, err := positdebug.RefactorToPosit(k.Source(8))
	if err != nil {
		return err
	}

	srv := server.New(server.Config{DefaultTimeout: 30 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-done
	}()
	base := "http://" + l.Addr().String()

	rep := &ServeReport{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	conc := runtime.GOMAXPROCS(0)
	scenarios := []struct {
		name string
		req  server.RunRequest
	}{
		{"serve/gemm8-shadow", server.RunRequest{Source: psrc}},
		{"serve/gemm8-baseline", server.RunRequest{Source: psrc, Baseline: true}},
	}
	for _, sc := range scenarios {
		s, err := runServeScenario(base, sc.name, sc.req, requests, conc)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, s)
		fmt.Fprintf(os.Stderr, "%-24s %8.1f req/s  p50 %7.2f ms  p99 %7.2f ms  (%d reqs, %d workers)\n",
			s.Name, s.ReqPerSec, s.P50Ms, s.P99Ms, s.Requests, s.Concurrency)
	}

	return writeReport(outPath, rep)
}

func runServeScenario(base, name string, rr server.RunRequest, requests, conc int) (ServeScenario, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return ServeScenario{}, err
	}
	post := func() (time.Duration, error) {
		t0 := time.Now()
		resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var run server.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d", name, resp.StatusCode)
		}
		return time.Since(t0), nil
	}

	// Warmup: populate the compile cache and the HTTP client's connection
	// pool so the measurement is the steady-state warm path.
	for i := 0; i < 2*conc; i++ {
		if _, err := post(); err != nil {
			return ServeScenario{}, err
		}
	}

	lat := make([]time.Duration, requests)
	var idx, failed int64
	var mu sync.Mutex
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(idx) >= requests {
			return -1
		}
		i := int(idx)
		idx++
		return i
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next()
				if i < 0 {
					return
				}
				d, err := post()
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					return
				}
				lat[i] = d
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if failed > 0 {
		return ServeScenario{}, fmt.Errorf("%s: %d requests failed", name, failed)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return ServeScenario{
		Name: name, Requests: requests, Concurrency: conc,
		ReqPerSec: float64(requests) / wall.Seconds(),
		P50Ms:     pct(0.50), P99Ms: pct(0.99),
	}, nil
}
