package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/workloads"
)

// syncBuf is a mutex-guarded log target: the flight dump happens after the
// response is written, so tests poll it rather than read it racily.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuf) waitNonEmpty(t *testing.T) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if out := s.String(); out != "" {
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("flight log stayed empty")
	return ""
}

// TestFlightDumpOnDetections: a detection-bearing 200 dumps the request's
// flight log as schema-valid JSONL, every event stamped with the request
// id that the response also carries.
func TestFlightDumpOnDetections(t *testing.T) {
	log := &syncBuf{}
	s, ts := newTestServer(t, Config{FlightRecorder: 64, FlightLog: log})
	resp, body := postRun(t, ts, RunRequest{Source: workloads.RootCountSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Detections) == 0 {
		t.Fatalf("RootCount produced no detections: %s", body)
	}
	hdr := resp.Header.Get("X-Request-Id")
	if hdr == "" || rr.Req != hdr {
		t.Fatalf("request id mismatch: header %q, body %q", hdr, rr.Req)
	}

	out := log.waitNonEmpty(t)
	if _, err := obs.ValidateJSONLines(strings.NewReader(out)); err != nil {
		t.Fatalf("flight dump fails schema validation: %v", err)
	}
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Req != hdr {
			t.Fatalf("line %d: event req %q, want %q", i, e.Req, hdr)
		}
	}
	for _, want := range []string{`"kind":"detection"`, `"kind":"span-begin"`, `"name":"shadow-exec"`, `"name":"request"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump lacks %s:\n%s", want, out)
		}
	}
	if got := s.reg.Counter("pd_flight_events_total").Value(); got == 0 {
		t.Fatal("pd_flight_events_total not published")
	}
	if got := s.reg.Counter("pd_flight_dumps_total").Value(); got != 1 {
		t.Fatalf("pd_flight_dumps_total = %d, want 1", got)
	}
}

// TestFlightDumpOn5xx: a resource-exhausted 503 dumps the log too.
func TestFlightDumpOn5xx(t *testing.T) {
	log := &syncBuf{}
	_, ts := newTestServer(t, Config{FlightRecorder: 64, FlightLog: log})
	resp, body := postRun(t, ts, RunRequest{Source: spinSrc, MaxSteps: 50_000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Req == "" || er.Req != resp.Header.Get("X-Request-Id") {
		t.Fatalf("error response id %q vs header %q", er.Req, resp.Header.Get("X-Request-Id"))
	}
	out := log.waitNonEmpty(t)
	if !strings.Contains(out, `"kind":"run-start"`) {
		t.Fatalf("flight dump lacks run-start:\n%s", out)
	}
}

// TestFlightCountersCountDrops: a flight log smaller than the request's
// event stream keeps the newest events, and pd_flight_dropped_total counts
// the evicted ones.
func TestFlightCountersCountDrops(t *testing.T) {
	log := &syncBuf{}
	s, ts := newTestServer(t, Config{FlightRecorder: 4, FlightLog: log})
	resp, body := postRun(t, ts, RunRequest{Source: workloads.RootCountSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	out := log.waitNonEmpty(t)
	if n := strings.Count(out, "\n"); n != 4 {
		t.Fatalf("dump holds %d events, want the newest 4:\n%s", n, out)
	}
	if _, err := obs.ValidateJSONLines(strings.NewReader(out)); err != nil {
		t.Fatalf("evicted dump fails schema validation: %v", err)
	}
	events := s.reg.Counter("pd_flight_events_total").Value()
	if dropped := s.reg.Counter("pd_flight_dropped_total").Value(); events <= 4 || dropped != events-4 {
		t.Fatalf("events %d, dropped %d: want dropped = events − 4 > 0", events, dropped)
	}
}

// TestFlightNoDumpOnCleanRun: clean baseline 200s leave the log silent.
func TestFlightNoDumpOnCleanRun(t *testing.T) {
	log := &syncBuf{}
	_, ts := newTestServer(t, Config{FlightRecorder: 64, FlightLog: log})
	resp, body := postRun(t, ts, RunRequest{Source: goodSrc, Baseline: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	time.Sleep(20 * time.Millisecond)
	if out := log.String(); out != "" {
		t.Fatalf("unexpected flight dump for clean run:\n%s", out)
	}
}

// TestDebugProfileEndpoint: request profiling aggregates across requests
// under the source-hash key and serves both JSON and the text report.
func TestDebugProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{ProfileRequests: true})
	for i := 0; i < 2; i++ {
		resp, body := postRun(t, ts, RunRequest{Source: goodSrc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var profiles map[string]*profile.Profile
	if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 {
		t.Fatalf("got %d profiles, want 1", len(profiles))
	}
	for key, p := range profiles {
		if !strings.HasPrefix(key, "src-") {
			t.Fatalf("profile key %q lacks source-hash prefix", key)
		}
		if p.Runs != 2 {
			t.Fatalf("profile runs = %d, want 2", p.Runs)
		}
		if len(p.Insts) == 0 {
			t.Fatal("profile has no instructions")
		}
		for _, ip := range p.Insts {
			if !strings.HasPrefix(ip.Pos, key+":") {
				t.Fatalf("instruction pos %q not prefixed with source hash %q", ip.Pos, key)
			}
		}
	}
	top, err := http.Get(ts.URL + "/debug/profile?top=3")
	if err != nil {
		t.Fatal(err)
	}
	defer top.Body.Close()
	text, _ := io.ReadAll(top.Body)
	if !strings.Contains(string(text), "src-") || !strings.Contains(string(text), "err(mean)") {
		t.Fatalf("top report unexpected:\n%s", text)
	}
}

// TestPprofMount: /debug/pprof/ answers only when EnablePprof is set.
func TestPprofMount(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof mounted without EnablePprof: %d", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d, want 200", resp.StatusCode)
	}
}
