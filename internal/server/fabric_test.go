package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/profile"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, v interface{}) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCampaignShardEndpoint: the HTTP shard path returns exactly what an
// in-process RunShard computes — the fabric's wire hop adds nothing and
// loses nothing.
func TestCampaignShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 30 * time.Second})
	ccfg := faultinject.CampaignConfig{Workload: "polybench/gemm", N: 8, Runs: 6, Seed: 11}
	req := faultinject.ShardRequest{
		Version: faultinject.ShardVersion, Config: ccfg.Wire(), Arch: "posit", Lo: 1, Hi: 4,
	}

	want, err := faultinject.RunShard(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/campaign/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got faultinject.ShardResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(&got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("HTTP shard differs from local shard:\nlocal: %s\nhttp:  %s", wantJSON, gotJSON)
	}
}

func TestCampaignShardRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ccfg := faultinject.CampaignConfig{Workload: "polybench/gemm", N: 8, Runs: 6, Seed: 11}

	cases := []struct {
		name string
		req  faultinject.ShardRequest
	}{
		{"version-skew", faultinject.ShardRequest{Version: 99, Config: ccfg.Wire(), Arch: "posit", Lo: 0, Hi: 1}},
		{"unknown-workload", faultinject.ShardRequest{Version: faultinject.ShardVersion,
			Config: faultinject.CampaignConfig{Workload: "nope/nope", Runs: 6}.Wire(), Arch: "posit", Lo: 0, Hi: 1}},
		{"range-past-runs", faultinject.ShardRequest{Version: faultinject.ShardVersion, Config: ccfg.Wire(), Arch: "posit", Lo: 0, Hi: 7}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, "/campaign/shard", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestProfileShardEndpoint: two HTTP shards merge to the bytes of one
// local sweep over the combined run count.
func TestProfileShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 30 * time.Second})
	shardReq := func(runs int) harness.ProfileShard {
		return harness.ProfileShard{Version: harness.ProfileShardVersion, Kernel: "gemm", N: 8, Posit: true, Runs: runs}
	}
	fetch := func(runs int) *profile.Profile {
		t.Helper()
		resp, body := postJSON(t, ts, "/profile/shard", shardReq(runs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		p, err := profile.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	merged, err := profile.Merge(fetch(2), fetch(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RecordProfile(harness.ProfileOptions{Kernel: "gemm", N: 8, Posit: true, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged HTTP profile shards differ from the local sweep")
	}

	if resp, _ := postJSON(t, ts, "/profile/shard", harness.ProfileShard{Version: 99, Kernel: "gemm", Runs: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version skew not rejected: %d", resp.StatusCode)
	}
}

// TestRetryAfterScalesWithQueueDepth: the hint must reflect the backlog —
// an empty queue advertises the floor, a deep one a proportionally longer
// wait, and the cap keeps it sane.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, DefaultTimeout: 2 * time.Second})
	if got := s.retryAfterSecs(); got != 1 {
		t.Fatalf("empty queue: want hint 1, got %d", got)
	}
	s.queued.Store(4) // two waves of 2 at 2s each
	if got := s.retryAfterSecs(); got != 4 {
		t.Fatalf("4 queued: want hint 4, got %d", got)
	}
	s.queued.Store(1000)
	if got := s.retryAfterSecs(); got != 30 {
		t.Fatalf("deep queue: want capped hint 30, got %d", got)
	}
}
