package fabric

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
	"positdebug/internal/server"
)

// TestFabricMidCampaignJoin: the coordinator starts with an EMPTY dynamic
// roster, blocks waiting for the fleet to assemble, serves the campaign on
// the first worker to register, and puts a second mid-campaign joiner to
// work — with the merged report byte-identical to a sequential run.
func TestFabricMidCampaignJoin(t *testing.T) {
	ccfg := testCampaign()
	want := sequentialOracle(t, ccfg)

	// w1 is deliberately slow per shard so the mid-run joiner has work left
	// to steal; w2 counts the shards it serves.
	base := server.New(server.Config{DefaultTimeout: 30 * time.Second}).Handler()
	w1 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" {
			time.Sleep(150 * time.Millisecond)
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(w1.Close)
	var w2Shards atomic.Int32
	w2 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" {
			w2Shards.Add(1)
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(w2.Close)

	members := NewMembership()
	reg := obs.NewRegistry()
	cfg := fastCfg() // no static workers: pure discovery mode
	cfg.Members = members
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		if _, err := members.Join(Member{URL: w1.URL}); err != nil {
			t.Error(err)
		}
		time.Sleep(200 * time.Millisecond) // w1 is mid-campaign by now
		if _, err := members.Join(Member{URL: w2.URL}); err != nil {
			t.Error(err)
		}
	}()

	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("campaign with mid-run join differs from sequential oracle")
	}
	if w2Shards.Load() == 0 {
		t.Fatal("the mid-campaign joiner served no shards")
	}
	if n := reg.Counter("pd_fabric_member_joins_total").Value(); n != 2 {
		t.Fatalf("joins counter = %d, want 2", n)
	}
}

// TestFabricDrainMigratesLease: a worker that announces departure while an
// attempt is in flight has that attempt cancelled and the shard migrated
// immediately — the campaign must NOT wait out the (deliberately long)
// lease, and the drained worker pays no health penalty.
func TestFabricDrainMigratesLease(t *testing.T) {
	ccfg := testCampaign()
	want := sequentialOracle(t, ccfg)

	hangStarted := make(chan struct{})
	stop := make(chan struct{})
	var hung atomic.Bool
	base := server.New(server.Config{DefaultTimeout: 30 * time.Second}).Handler()
	leaving := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" && hung.CompareAndSwap(false, true) {
			io.Copy(io.Discard, r.Body)
			close(hangStarted)
			select {
			case <-r.Context().Done(): // drain migration tore the attempt down
			case <-stop:
			}
			return
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(leaving.Close)
	t.Cleanup(func() { close(stop) })
	staying := newWorker(t)

	reg := obs.NewRegistry()
	cfg := fastCfg(leaving.URL, staying.URL)
	cfg.LeaseTimeout = time.Minute // migration must beat this by far
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		<-hangStarted
		// The worker's drain announcement: deregister from the roster.
		co.Members().Leave(leaving.URL, "draining")
	}()

	start := time.Now()
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("campaign took %v; the drain announcement should migrate the lease immediately", elapsed)
	}
	if n := reg.Counter("pd_fabric_drain_migrations_total").Value(); n < 1 {
		t.Fatalf("drain migrations counter = %d, want >= 1", n)
	}
	if n := reg.Counter("pd_fabric_ejections_total").Value(); n != 0 {
		t.Fatalf("a graceful departure cost %d ejections; drains are not faults", n)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("campaign with drained worker differs from sequential oracle")
	}
}

// TestFabricAllWorkersDeadFailsFast is the all-workers-ejected satellite:
// when every worker has failed its way out of the fleet, the coordinator
// must fail fast with an error naming each worker's last failure — not
// idle until the campaign deadline.
func TestFabricAllWorkersDeadFailsFast(t *testing.T) {
	bad := func(msg string) *httptest.Server {
		s := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			http.Error(rw, msg, http.StatusInternalServerError)
		}))
		t.Cleanup(s.Close)
		return s
	}
	b1 := bad(`{"error":"disk on fire","kind":"internal-fault"}`)
	b2 := bad(`{"error":"cosmic rays","kind":"internal-fault"}`)

	cfg := fastCfg(b1.URL, b2.URL)
	cfg.MaxAttempts = 1000 // idling through retries would take forever
	cfg.EjectAfter = 2
	cfg.DeadAfter = 2
	cfg.Probation = 20 * time.Millisecond
	cfg.Logf = t.Logf
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = co.RunCampaign(context.Background(), testCampaign())
	if err == nil {
		t.Fatal("campaign with an all-dead fleet should fail")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("all-dead verdict took %v; it must fail fast", elapsed)
	}
	msg := err.Error()
	for _, frag := range []string{"all 2 workers failed", b1.URL, b2.URL, "disk on fire", "cosmic rays"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("all-dead error %q does not name %q", msg, frag)
		}
	}
	if co.members.Len() != 0 {
		t.Fatalf("dead workers still in the roster: %d", co.members.Len())
	}
}

// TestFabricDeadWorkerRejoinsClean: a worker declared dead and then
// re-registered comes back with a clean health record and serves work.
func TestFabricDeadWorkerRejoinsClean(t *testing.T) {
	ccfg := testCampaign()
	want := sequentialOracle(t, ccfg)

	// flaky 500s until revived, then behaves.
	var revived atomic.Bool
	base := server.New(server.Config{DefaultTimeout: 30 * time.Second}).Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !revived.Load() {
			http.Error(rw, `{"error":"warming up","kind":"internal-fault"}`, http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(flaky.Close)
	steady := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" {
			time.Sleep(100 * time.Millisecond) // leave work for the returnee
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(steady.Close)

	reg := obs.NewRegistry()
	cfg := fastCfg(flaky.URL, steady.URL)
	cfg.EjectAfter = 2
	cfg.DeadAfter = 1 // first ejection is fatal: fastest route to a death verdict
	cfg.Metrics = reg
	cfg.Logf = t.Logf
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		// Wait for the death verdict, then revive and re-register.
		deadline := time.Now().Add(20 * time.Second)
		for co.members.Len() != 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		revived.Store(true)
		if _, err := co.members.Join(Member{URL: flaky.URL}); err != nil {
			t.Error(err)
		}
	}()

	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("pd_fabric_member_deaths_total").Value(); n != 1 {
		t.Fatalf("deaths counter = %d, want 1", n)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("campaign with dead-then-rejoined worker differs from sequential oracle")
	}
}

// TestFabricDeterministicJitter is the injectable-jitter satellite: the
// same JitterSeed replays the same backoff schedule; the default (seed 0)
// still derives a fresh one.
func TestFabricDeterministicJitter(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		co, err := New(Config{Workers: []string{"http://x"}, JitterSeed: seed,
			BaseBackoff: 100 * time.Millisecond, MaxBackoff: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 0, 40)
		for f := 1; f <= 40; f++ {
			out = append(out, co.backoff(f%8+1))
		}
		return out
	}
	a, b := mk(12345), mk(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(54321)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 40-draw schedules")
	}
}

// TestParseRetryAfter is the RFC 9110 §10.2.3 satellite: delta-seconds and
// HTTP-date forms both parse; garbage and negatives mean "no hint".
func TestParseRetryAfter(t *testing.T) {
	now := time.Now()
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"3", 3 * time.Second, true},
		{" 10 ", 10 * time.Second, true},
		{"0", 0, true},
		{"-5", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		{"2.5", 0, false},
		{now.Add(10 * time.Second).UTC().Format(http.TimeFormat), 10 * time.Second, true},
		{now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, true}, // past date: now is fine
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in, now)
		if ok != c.ok {
			t.Errorf("parseRetryAfter(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		// HTTP-date precision is one second; allow that much slack.
		if diff := got - c.want; diff < -time.Second || diff > time.Second {
			t.Errorf("parseRetryAfter(%q) = %v, want ~%v", c.in, got, c.want)
		}
	}
}

// TestFabricJournalsMembershipEvents: fleet churn during a journaled
// campaign lands "member" records in the WAL — and a resume on that
// journal ignores them completely.
func TestFabricJournalsMembershipEvents(t *testing.T) {
	ccfg := testCampaign()
	ccfg.Arch = "posit"
	want := sequentialOracle(t, ccfg)
	jpath := filepath.Join(t.TempDir(), "churn.journal")

	// The join is triggered from inside w1's first shard request: the
	// scheduler loop is then provably mid-campaign, so the membership
	// change is churn, not initial roster, and must hit the journal.
	coCh := make(chan *Coordinator, 1)
	var once sync.Once
	w2 := newWorker(t)
	base := server.New(server.Config{DefaultTimeout: 30 * time.Second}).Handler()
	w1 := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/campaign/shard" {
			once.Do(func() {
				co := <-coCh
				if _, err := co.Members().Join(Member{URL: w2.URL}); err != nil {
					t.Error(err)
				}
			})
		}
		base.ServeHTTP(rw, r)
	}))
	t.Cleanup(w1.Close)

	j, err := faultinject.OpenJournal(jpath, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(w1.URL)
	cfg.Journal = j
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coCh <- co
	rep, err := co.RunCampaign(context.Background(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := reportBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatal("journaled churn campaign differs from sequential oracle")
	}

	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"member"`) {
		t.Fatal("journal holds no membership records despite a mid-campaign join")
	}

	// A resume over the member-record-bearing journal replays every run.
	j2, err := faultinject.OpenJournal(jpath, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != ccfg.Runs {
		t.Fatalf("resume set = %d runs, want %d; member records must not disturb replay", j2.Resumed(), ccfg.Runs)
	}
}
