package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"positdebug/internal/obs"
)

func TestNormalizeWorkerURL(t *testing.T) {
	cases := []struct {
		in, want, errSub string
	}{
		{in: "http://w1:8080", want: "http://w1:8080"},
		{in: "  http://w1:8080/  ", want: "http://w1:8080"},
		{in: "https://w1", want: "https://w1"},
		{in: "", errSub: "empty worker URL"},
		{in: "   ", errSub: "empty worker URL"},
		{in: "w1:8080", errSub: "must be http:// or https://"},
		{in: "ftp://w1", errSub: "must be http:// or https://"},
		{in: "http://", errSub: "has no host"},
		{in: "http://%zz", errSub: "malformed"},
	}
	for _, c := range cases {
		got, err := NormalizeWorkerURL(c.in)
		if c.errSub != "" {
			if err == nil || !strings.Contains(err.Error(), c.errSub) {
				t.Errorf("NormalizeWorkerURL(%q) err = %v, want containing %q", c.in, err, c.errSub)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("NormalizeWorkerURL(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestMembershipJoinHeartbeatLeave(t *testing.T) {
	m := NewMembership()
	v0 := m.Version()

	joined, err := m.Join(Member{URL: "http://w1:1/", Capacity: 4, Oracle: "bigfp"})
	if err != nil || !joined {
		t.Fatalf("first Join = %v, %v; want true, nil", joined, err)
	}
	if m.Version() == v0 {
		t.Fatal("join did not bump the version")
	}
	select {
	case <-m.Notify():
	default:
		t.Fatal("join did not signal Notify")
	}

	// A second Join of the same URL is a heartbeat: fields refresh, and
	// the version stays put even when the advertised capacity changes —
	// capacity is telemetry, not placement.
	v1 := m.Version()
	joined, err = m.Join(Member{URL: "http://w1:1", Capacity: 8, Backend: "vm"})
	if err != nil || joined {
		t.Fatalf("heartbeat Join = %v, %v; want false, nil", joined, err)
	}
	if m.Version() != v1 {
		t.Fatal("capacity-changing heartbeat bumped the version; heartbeats are not membership changes")
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].URL != "http://w1:1" || snap[0].Capacity != 8 || snap[0].Oracle != "bigfp" || snap[0].Backend != "vm" {
		t.Fatalf("roster after heartbeat = %+v", snap)
	}

	if !m.Leave("http://w1:1", "test") {
		t.Fatal("Leave of a present member returned false")
	}
	if m.Leave("http://w1:1", "test") {
		t.Fatal("Leave of an absent member returned true")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after leave = %d", m.Len())
	}
	if _, err := m.Join(Member{URL: "not a url"}); err == nil {
		t.Fatal("Join accepted a malformed URL")
	}
}

func TestMembershipExpireStale(t *testing.T) {
	m := NewMembership()
	if err := m.JoinStatic("http://static:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Join(Member{URL: "http://dyn:2"}); err != nil {
		t.Fatal(err)
	}
	// Nothing is stale yet.
	if dropped := m.ExpireStale(time.Minute, time.Now()); len(dropped) != 0 {
		t.Fatalf("fresh members expired: %v", dropped)
	}
	// Far future: the dynamic member's heartbeat is ancient, the static one
	// never promised any.
	dropped := m.ExpireStale(time.Minute, time.Now().Add(time.Hour))
	if len(dropped) != 1 || dropped[0] != "http://dyn:2" {
		t.Fatalf("ExpireStale dropped %v, want only the dynamic member", dropped)
	}
	if m.Len() != 1 {
		t.Fatalf("Len after expiry = %d, want the static survivor", m.Len())
	}
}

func TestRegistrarEndpoints(t *testing.T) {
	members := NewMembership()
	reg, err := NewRegistrar(RegistrarConfig{Members: members, ProbeInterval: -1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)

	post := func(path string, body any) map[string]any {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out := post("/fabric/register", RegisterRequest{URL: "http://w1:1", Capacity: 2, Oracle: "dd", Backend: "vm"})
	if out["status"] != "joined" {
		t.Fatalf("first register status = %v", out["status"])
	}
	out = post("/fabric/register", RegisterRequest{URL: "http://w1:1"})
	if out["status"] != "heartbeat" {
		t.Fatalf("second register status = %v", out["status"])
	}

	resp, err := http.Get(ts.URL + "/fabric/members")
	if err != nil {
		t.Fatal(err)
	}
	var roster struct{ Members []Member }
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(roster.Members) != 1 || roster.Members[0].Oracle != "dd" {
		t.Fatalf("roster = %+v", roster.Members)
	}

	out = post("/fabric/deregister", DeregisterRequest{URL: "http://w1:1", Reason: "drain"})
	if out["removed"] != true {
		t.Fatalf("deregister removed = %v", out["removed"])
	}
	if members.Len() != 0 {
		t.Fatal("deregister left the member in the roster")
	}

	// Malformed registration is a 400, not a join.
	b, _ := json.Marshal(RegisterRequest{URL: "not-a-url"})
	resp, err = http.Post(ts.URL+"/fabric/register", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed register = %d, want 400", resp.StatusCode)
	}
}

// TestRegistrarProbeEviction: a member that keeps answering /readyz with
// anything but 200 is evicted after ProbeFailures consecutive sweeps; one
// good probe in between resets the count.
func TestRegistrarProbeEviction(t *testing.T) {
	var healthy bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if healthy {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(worker.Close)

	members := NewMembership()
	if err := members.JoinStatic(worker.URL); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	reg, err := NewRegistrar(RegistrarConfig{
		Members: members, ProbeInterval: -1, ProbeFailures: 3,
		HeartbeatTTL: time.Hour, Metrics: metrics, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	healthy = false
	reg.sweep(ctx, time.Now())
	reg.sweep(ctx, time.Now())
	if members.Len() != 1 {
		t.Fatal("member evicted before ProbeFailures consecutive failures")
	}
	healthy = true
	reg.sweep(ctx, time.Now()) // resets the grudge
	healthy = false
	reg.sweep(ctx, time.Now())
	reg.sweep(ctx, time.Now())
	if members.Len() != 1 {
		t.Fatal("a successful probe did not reset the failure count")
	}
	reg.sweep(ctx, time.Now())
	if members.Len() != 0 {
		t.Fatal("member not evicted after ProbeFailures consecutive failed probes")
	}
	if n := metrics.Counter("pd_fabric_probe_failures_total").Value(); n != 5 {
		t.Fatalf("probe failure counter = %d, want 5", n)
	}
}
