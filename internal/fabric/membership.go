package fabric

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"positdebug/internal/obs"
)

// Member is one worker in the fleet, as the coordinator knows it: where to
// dial it, what it advertised about itself at registration, and when it
// was last heard from.
type Member struct {
	// URL is the worker's pdserve base URL, normalized (no trailing /).
	URL string `json:"url"`
	// Capacity is the worker's advertised concurrent-run capacity
	// (pdserve's MaxConcurrent), reported at /fleet/status. Placement
	// ignores it: the scheduler dispatches one shard per worker at a time.
	Capacity int `json:"capacity,omitempty"`
	// Oracle and Backend are the shadow-oracle and execution-backend tier
	// the worker advertised — surfaced at /fabric/members so an operator
	// can spot a worker serving the wrong tier before it skews latency.
	Oracle  string `json:"oracle,omitempty"`
	Backend string `json:"backend,omitempty"`
	// Static marks members from a -workers list: they never expire for
	// missing heartbeats (they never promised any).
	Static bool `json:"static,omitempty"`
	// Stats is the telemetry snapshot the worker's most recent heartbeat
	// carried (queue depth, shadow tier, cache hit rate, detections); nil
	// until a heartbeat delivers one. It feeds GET /fleet/status and the
	// pd_fleet_worker_* gauges.
	Stats *obs.WorkerStats `json:"stats,omitempty"`
	// Joined and LastBeat track registration time and the most recent
	// heartbeat (or join time for static members).
	Joined   time.Time `json:"joined"`
	LastBeat time.Time `json:"last_heartbeat"`
}

// NormalizeWorkerURL validates and canonicalizes one worker base URL:
// surrounding whitespace is trimmed, a trailing slash dropped, and
// anything that isn't an absolute http(s) URL with a host is rejected
// with an error naming the offending value.
func NormalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("empty worker URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("malformed worker URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("worker URL %q must be http:// or https://", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("worker URL %q has no host", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

// Membership is the fleet roster shared between the scheduler (reader),
// the Registrar (writer: registrations, heartbeat expiry, probe
// evictions) and the scheduler's own death verdicts (writer). It is the
// single source of truth for who is in the fleet; the scheduler follows
// it mid-campaign — a worker that joins while shards are in flight starts
// receiving work, one that leaves has its lease cancelled and its shards
// migrated immediately.
type Membership struct {
	mu      sync.Mutex
	members map[string]*Member
	version uint64
	notify  chan struct{}
	reg     *obs.Registry
	logf    func(format string, args ...any)
}

// NewMembership returns an empty roster.
func NewMembership() *Membership {
	return &Membership{
		members: make(map[string]*Member),
		notify:  make(chan struct{}, 1),
	}
}

// SetLogf installs a human-oriented event logger (join/leave lines).
func (m *Membership) SetLogf(logf func(format string, args ...any)) {
	m.mu.Lock()
	m.logf = logf
	m.mu.Unlock()
}

// setMetrics attaches the registry receiving pd_fabric_member_* counters
// and the pd_fabric_members gauge; first writer wins.
func (m *Membership) setMetrics(reg *obs.Registry) {
	m.mu.Lock()
	if m.reg == nil && reg != nil {
		m.reg = reg
		reg.Gauge("pd_fabric_members").Set(int64(len(m.members)))
	}
	m.mu.Unlock()
}

// Join adds (or refreshes) a member. A new URL is a join: the roster
// version bumps and watchers are woken. A known URL is a heartbeat: the
// advertised fields and LastBeat refresh without a membership change.
// The URL is validated with NormalizeWorkerURL. Returns true when the
// member was new.
func (m *Membership) Join(mem Member) (bool, error) {
	u, err := NormalizeWorkerURL(mem.URL)
	if err != nil {
		return false, err
	}
	mem.URL = u
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.members[u]; ok {
		cur.LastBeat = now
		if mem.Capacity != 0 {
			cur.Capacity = mem.Capacity
		}
		if mem.Oracle != "" {
			cur.Oracle = mem.Oracle
		}
		if mem.Backend != "" {
			cur.Backend = mem.Backend
		}
		if mem.Stats != nil {
			cur.Stats = mem.Stats
			m.publishStatsLocked(u, mem.Stats)
		}
		cur.Static = cur.Static || mem.Static
		return false, nil
	}
	mem.Joined, mem.LastBeat = now, now
	m.members[u] = &mem
	if mem.Stats != nil {
		m.publishStatsLocked(u, mem.Stats)
	}
	m.changedLocked()
	if m.reg != nil {
		m.reg.Counter("pd_fabric_member_joins_total").Inc()
	}
	if m.logf != nil {
		m.logf("fabric: member joined: %s (capacity %d, oracle %s, backend %s, static %v)",
			u, mem.Capacity, mem.Oracle, mem.Backend, mem.Static)
	}
	return true, nil
}

// publishStatsLocked mirrors one worker's heartbeat telemetry into the
// registry as labeled pd_fleet_worker_* gauges, the Prometheus view of
// what GET /fleet/status reports.
func (m *Membership) publishStatsLocked(u string, s *obs.WorkerStats) {
	if m.reg == nil {
		return
	}
	l := `{worker="` + u + `"}`
	m.reg.Gauge("pd_fleet_worker_queue_depth" + l).Set(s.QueueDepth)
	m.reg.Gauge("pd_fleet_worker_inflight" + l).Set(s.InFlight)
	m.reg.Gauge("pd_fleet_worker_detections" + l).Set(s.Detections)
	m.reg.Gauge("pd_fleet_worker_shards" + l).Set(s.Shards)
	m.reg.Gauge("pd_fleet_worker_cache_hit_permille" + l).Set(int64(s.CacheHitRate() * 1000))
	degraded := int64(0)
	if s.Degraded {
		degraded = 1
	}
	m.reg.Gauge("pd_fleet_worker_degraded" + l).Set(degraded)
}

// JoinStatic adds one static member (a -workers list entry): exempt from
// heartbeat expiry, otherwise a normal member.
func (m *Membership) JoinStatic(rawURL string) error {
	_, err := m.Join(Member{URL: rawURL, Static: true})
	return err
}

// Leave removes a member (drain announcement, heartbeat expiry, probe
// eviction, or a scheduler death verdict). Reason is for the log and the
// campaign journal. Returns true when the member was present.
func (m *Membership) Leave(rawURL, reason string) bool {
	u, err := NormalizeWorkerURL(rawURL)
	if err != nil {
		u = strings.TrimRight(strings.TrimSpace(rawURL), "/")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[u]; !ok {
		return false
	}
	delete(m.members, u)
	m.changedLocked()
	if m.reg != nil {
		m.reg.Counter("pd_fabric_member_leaves_total").Inc()
	}
	if m.logf != nil {
		m.logf("fabric: member left: %s (%s)", u, reason)
	}
	return true
}

// ExpireStale removes every non-static member whose last heartbeat is
// older than ttl, returning the URLs dropped. Static members never
// expire — they never promised heartbeats.
func (m *Membership) ExpireStale(ttl time.Duration, now time.Time) []string {
	var dropped []string
	m.mu.Lock()
	for u, mem := range m.members {
		if mem.Static || now.Sub(mem.LastBeat) <= ttl {
			continue
		}
		delete(m.members, u)
		dropped = append(dropped, u)
		if m.reg != nil {
			m.reg.Counter("pd_fabric_member_leaves_total").Inc()
		}
		if m.logf != nil {
			m.logf("fabric: member expired: %s (no heartbeat for %v)", u, now.Sub(mem.LastBeat).Round(time.Millisecond))
		}
	}
	if len(dropped) > 0 {
		m.changedLocked()
	}
	m.mu.Unlock()
	sort.Strings(dropped)
	return dropped
}

// Snapshot returns the roster sorted by URL.
func (m *Membership) Snapshot() []Member {
	m.mu.Lock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Len reports the current member count.
func (m *Membership) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members)
}

// Version increments on every membership change; the scheduler compares
// it against the version it last synced to decide whether to resync its
// worker table.
func (m *Membership) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Notify returns a channel that receives (capacity-1, coalesced) after
// every membership change — the scheduler selects on it so a join or
// leave wakes a blocked event loop immediately.
func (m *Membership) Notify() <-chan struct{} { return m.notify }

func (m *Membership) changedLocked() {
	m.version++
	if m.reg != nil {
		m.reg.Gauge("pd_fabric_members").Set(int64(len(m.members)))
	}
	select {
	case m.notify <- struct{}{}:
	default: // a wakeup is already pending; one is enough
	}
}
