package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
	"positdebug/internal/server"
)

// The chaos campaign suite: real multi-worker campaigns through the
// fault-injecting proxy, each asserting the merged report is
// byte-identical to a sequential single-process pdfault run. Every test
// also asserts its faults actually fired — a calm run must not pass as a
// chaotic one.

func chaosCampaign() faultinject.CampaignConfig {
	return faultinject.CampaignConfig{
		Workload: "polybench/gemm", N: 8, Arch: "both", Runs: 16, Seed: 1337,
	}
}

func oracleBytes(t *testing.T, cfg faultinject.CampaignConfig) []byte {
	t.Helper()
	rep, err := faultinject.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fabricBytes(t *testing.T, rep *faultinject.Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosCfg is the coordinator shape for chaos runs: quick retries, quick
// ejections, death verdicts on, hedging off unless a test opts in.
func chaosCfg(workers ...string) fabric.Config {
	return fabric.Config{
		Workers:      workers,
		ShardSize:    2,
		MaxAttempts:  12,
		BaseBackoff:  5 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		LeaseTimeout: time.Minute,
		HedgeAfter:   -1,
		EjectAfter:   2,
		DeadAfter:    2,
		Probation:    50 * time.Millisecond,
		JitterSeed:   42,
	}
}

// TestChaosFaultStormByteIdentical drives a campaign through three
// proxies injecting a mixed storm — latency, 5xx errors, connection
// resets, truncated bodies — and requires the merged report to match the
// sequential oracle byte for byte.
func TestChaosFaultStormByteIdentical(t *testing.T) {
	ccfg := chaosCampaign()
	want := oracleBytes(t, ccfg)

	fleet, err := NewFleet(3, DefaultWorkerConfig(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	fleet.Workers[0].Proxy.SetRoute("/campaign/shard", Spec{Latency: 20 * time.Millisecond, ErrorRate: 0.5, ErrorCode: http.StatusServiceUnavailable})
	fleet.Workers[1].Proxy.SetRoute("/campaign/shard", Spec{ResetRate: 0.5})
	fleet.Workers[2].Proxy.SetRoute("/campaign/shard", Spec{TruncateRate: 0.4, ErrorRate: 0.25, ErrorCode: http.StatusInternalServerError})

	reg := obs.NewRegistry()
	cfg := chaosCfg(fleet.URLs()...)
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	co, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fabricBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("fault-storm report differs from sequential oracle")
	}
	c := fleet.TotalCounts()
	t.Logf("injected faults: %+v", c)
	if c.Errors+c.Resets+c.Truncates < 3 {
		t.Fatalf("storm injected too few faults to prove anything: %+v", c)
	}
	if c.Latency == 0 {
		t.Fatalf("latency spec never applied: %+v", c)
	}
}

// TestChaosBlackholeHedgeEscape: one worker blackholes every shard (accepts
// and hangs in silence). Hedging must rescue every stuck shard onto the
// healthy workers — long before the (deliberately long) lease.
func TestChaosBlackholeHedgeEscape(t *testing.T) {
	ccfg := chaosCampaign()
	want := oracleBytes(t, ccfg)

	fleet, err := NewFleet(3, DefaultWorkerConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	fleet.Workers[0].Proxy.SetRoute("/campaign/shard", Spec{BlackholeRate: 1})

	reg := obs.NewRegistry()
	cfg := chaosCfg(fleet.URLs()...)
	cfg.HedgeAfter = 250 * time.Millisecond
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	co, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 45*time.Second {
		t.Fatalf("campaign took %v; hedges should escape blackholes far inside the lease", elapsed)
	}
	if got := fabricBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("blackholed campaign differs from sequential oracle")
	}
	c := fleet.TotalCounts()
	t.Logf("injected faults: %+v", c)
	if c.Blackholes == 0 {
		t.Fatal("no blackhole ever fired; test proves nothing")
	}
	if n := reg.Counter(`pd_fabric_hedges_total{kind="campaign"}`).Value(); n == 0 {
		t.Fatal("no hedge fired; blackholed shards should have been hedged")
	}
}

// registerWorker posts one registration to the registrar, as pdserve
// -coordinator does on its first heartbeat.
func registerWorker(t *testing.T, coordURL, workerURL string) {
	t.Helper()
	body, _ := json.Marshal(fabric.RegisterRequest{URL: workerURL})
	resp, err := http.Post(coordURL+"/fabric/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: %d", workerURL, resp.StatusCode)
	}
}

// holdShards fronts target with a gate that forwards every request, but
// holds each shard request until released is closed.
func holdShards(t *testing.T, target string, released <-chan struct{}) string {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	fwd := httputil.NewSingleHostReverseProxy(u)
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" {
			select {
			case <-released:
			case <-r.Context().Done():
				return
			}
		}
		fwd.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)
	return gate.URL
}

// TestChaosChurnByteIdentical is the acceptance-criteria test: a campaign
// through fault-injecting proxies during which one worker is killed
// mid-run (no goodbye — backend dead, proxy answering 502) and another
// worker joins mid-run via the registration endpoint. The merged report
// must equal the sequential oracle byte for byte, the joiner must
// actually have served shards, and the victim must be declared dead.
//
// The death verdict takes two ejections a probation apart. So that it
// does not race the campaign's drain, the survivor and the joiner hold
// their shards until the victim's death is recorded: while they hold, the
// victim is the only worker free to take one.
func TestChaosChurnByteIdentical(t *testing.T) {
	ccfg := chaosCampaign()
	want := oracleBytes(t, ccfg)

	// The fleet roster is fed by a real registrar over HTTP — the same
	// surface pdcoord -listen serves.
	members := fabric.NewMembership()
	metrics := obs.NewRegistry()
	registrar, err := fabric.NewRegistrar(fabric.RegistrarConfig{
		Members: members, ProbeInterval: -1, HeartbeatTTL: time.Hour,
		Metrics: metrics, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(registrar.Handler())
	t.Cleanup(coordSrv.Close)

	fleet, err := NewFleet(2, DefaultWorkerConfig(), 31337)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	victim, survivor := fleet.Workers[0], fleet.Workers[1]
	victim.Proxy.SetRoute("/campaign/shard", Spec{ErrorRate: 0.15})
	survivor.Proxy.SetRoute("/campaign/shard", Spec{Latency: 25 * time.Millisecond})

	const holdLimit = 20 * time.Second
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(holdLimit)
		for metrics.Counter("pd_fabric_member_deaths_total").Value() < 1 {
			if time.Now().After(deadline) {
				t.Errorf("the killed worker was not declared dead within %v while the others held their shards", holdLimit)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	t.Cleanup(func() { <-released })
	registerWorker(t, coordSrv.URL, victim.URL())
	registerWorker(t, coordSrv.URL, holdShards(t, survivor.URL(), released))

	// Mid-campaign churn, triggered by real traffic: after the victim has
	// served two shards its backend dies (kill -9 shape: connections
	// severed, proxy 502s), and a brand-new worker registers.
	var joiner *Worker
	joined := make(chan struct{})
	victim.Proxy.OnForward(func(path string, n int) {
		if path != "/campaign/shard" || n != 2 {
			return
		}
		go func() {
			defer close(joined)
			victim.Kill()
			w, err := NewWorker(DefaultWorkerConfig(), 555)
			if err != nil {
				t.Error(err)
				return
			}
			joiner = w
			registerWorker(t, coordSrv.URL, holdShards(t, w.URL(), released))
		}()
	})

	cfg := chaosCfg() // no static workers: the roster is the registrar's
	cfg.Members = members
	cfg.Metrics = metrics
	cfg.Logf = t.Logf
	co, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("churn trigger never fired: the victim served fewer than 2 shards")
	}
	t.Cleanup(func() {
		if joiner != nil {
			joiner.Close()
		}
	})

	if got := fabricBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("churned campaign differs from sequential oracle")
	}
	if joiner == nil || joiner.Proxy.Counts().Forwarded == 0 {
		t.Fatal("the mid-campaign joiner served nothing")
	}
	if n := metrics.Counter("pd_fabric_member_deaths_total").Value(); n < 1 {
		t.Fatalf("deaths counter = %d; the killed worker was never declared dead", n)
	}
	for _, m := range members.Snapshot() {
		if m.URL == victim.URL() {
			t.Fatal("the killed worker is still in the roster")
		}
	}
}

// TestChaosDrainAnnouncementMigratesLeases: a worker running the real
// registration loop begins draining mid-campaign; its deregistration must
// reach the registrar and migrate its in-flight lease immediately — the
// campaign must finish far inside the deliberately long lease timeout.
// The drain begins when the worker's third shard request arrives, and
// that request is held until the coordinator gives up on it, so only the
// migration can end the attempt before the lease does.
func TestChaosDrainAnnouncementMigratesLeases(t *testing.T) {
	ccfg := chaosCampaign()
	want := oracleBytes(t, ccfg)

	members := fabric.NewMembership()
	metrics := obs.NewRegistry()
	registrar, err := fabric.NewRegistrar(fabric.RegistrarConfig{
		Members: members, ProbeInterval: -1, HeartbeatTTL: time.Hour,
		Metrics: metrics, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(registrar.Handler())
	t.Cleanup(coordSrv.Close)

	fleet, err := NewFleet(2, DefaultWorkerConfig(), 909)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	leaver, stayer := fleet.Workers[0], fleet.Workers[1]

	lu, err := url.Parse(leaver.URL())
	if err != nil {
		t.Fatal(err)
	}
	fwd := httputil.NewSingleHostReverseProxy(lu)
	var leaverShards atomic.Int32
	stop := make(chan struct{})
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" && leaverShards.Add(1) == 3 {
			// Graceful drain: new requests get 503, and the
			// registration loop posts the departure. Reading the body
			// lets the server notice the coordinator hanging up.
			leaver.Server.BeginDrain()
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-stop:
			}
			return
		}
		fwd.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)
	t.Cleanup(func() { close(stop) })

	// The leaver runs the real worker-side registration loop; its drain
	// will announce departure over the wire.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		leaver.Server.RegisterLoop(ctx, server.RegisterConfig{
			Coordinator: coordSrv.URL,
			Advertise:   gate.URL,
			Interval:    100 * time.Millisecond,
			Logf:        t.Logf,
		})
	}()
	registerWorker(t, coordSrv.URL, stayer.URL())
	deadline := time.Now().Add(5 * time.Second)
	for members.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if members.Len() < 2 {
		t.Fatal("fleet never assembled")
	}

	cfg := chaosCfg()
	cfg.Members = members
	cfg.Metrics = metrics
	cfg.LeaseTimeout = 5 * time.Minute // migration must not need the lease
	cfg.Logf = t.Logf
	co, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("campaign took %v; the drain announcement should migrate leases immediately", elapsed)
	}
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("registration loop did not exit after drain")
	}
	if got := fabricBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("drained campaign differs from sequential oracle")
	}
	if leaverShards.Load() < 3 {
		t.Fatal("drain trigger never fired: the leaver got fewer than 3 shards")
	}
	if n := metrics.Counter("pd_fabric_member_leaves_total").Value(); n < 1 {
		t.Fatal("no member ever left; the departure announcement was lost")
	}
}
