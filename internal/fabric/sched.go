package fabric

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"positdebug/internal/obs"
)

// This file is the fabric's failure-domain core: a single-goroutine event
// loop that assigns tasks (shards) to workers and absorbs every way a
// worker can disappoint — refuse, throttle, hang, crash, lie slowly, or
// walk out mid-attempt. All scheduler state (task and worker structs) is
// owned by the loop; attempt goroutines only perform the HTTP call and
// report back on a channel, so there is no locking and no data race by
// construction. Membership changes arrive as events too: the loop syncs
// its worker table (and the consistent-hash ring over it) from the shared
// Membership roster whenever the roster's version moves.

// task is one dispatchable unit of work — a campaign shard, a golden
// probe, or a profile shard. The scheduler is agnostic to the payload:
// call performs one attempt against one worker, onDone commits the first
// successful result (journal writes run here, on the event loop).
type task struct {
	label string
	// key is the task's kernel identity (workload/source), the consistent-
	// hash ring input: same-kernel tasks walk the same worker order, so
	// they keep landing on workers whose compile caches are already warm.
	key    string
	call   func(ctx context.Context, workerURL string) (any, error)
	onDone func(res any) error

	// Scheduler-owned state.
	failures    int       // failed attempts (429 throttles excluded)
	inflight    int       // outstanding attempts (>1 while hedged)
	launched    time.Time // start of the oldest outstanding attempt
	notBefore   time.Time // backoff gate for the next attempt
	lastURL     string    // worker of the most recent attempt
	lastFailURL string    // worker of the most recent failed attempt
	done        bool
	result      any
	cancels     []context.CancelFunc
}

func (t *task) cancelAll() {
	for _, c := range t.cancels {
		c()
	}
	t.cancels = nil
}

// workerState tracks one worker's health. A worker earns ejection by
// consecutive failures and re-enters on probation when the window passes:
// consecFails is deliberately NOT reset at re-admission, so one more
// failure re-ejects immediately, while one success clears the slate.
// Enough ejections (Config.DeadAfter) upgrade the verdict to dead: the
// worker is removed from the fleet roster entirely and only a fresh
// registration brings it back, with a clean record.
type workerState struct {
	url          string
	busy         bool
	consecFails  int
	ejections    int
	offlineUntil time.Time          // ejection or Retry-After throttle window
	lastErr      error              // most recent failure, for the fleet post-mortem
	removed      bool               // left the roster (drain, expiry, eviction, death)
	cancel       context.CancelFunc // in-flight attempt teardown (drain migration)
}

func (w *workerState) eligible(now time.Time) bool {
	return !w.removed && !w.busy && !now.Before(w.offlineUntil)
}

// attemptEnd is one finished attempt, reported by its goroutine.
type attemptEnd struct {
	t   *task
	w   *workerState
	res any
	err error
	at  *attemptTrace // nil unless fleet tracing is on
}

// schedState is the event loop's view of the fleet: the worker table, the
// tombstones of members that failed out (for the post-mortem error), and
// the consistent-hash ring over the live members.
type schedState struct {
	workers []*workerState
	byURL   map[string]*workerState
	gone    map[string]*workerState
	ring    *Ring
	version uint64 // Membership version the table was last synced to
}

func (st *schedState) live() int {
	n := 0
	for _, w := range st.workers {
		if !w.removed {
			n++
		}
	}
	return n
}

// syncMembers reconciles the scheduler's worker table with the shared
// roster: new members get a worker slot and join the ring, departed
// members are tombstoned and their in-flight attempt cancelled so the
// shard migrates immediately (the whole point of the drain announcement —
// no lease expiry wait), and a re-registered member returns with a clean
// health record. The ring is rebuilt over the survivors; consistent
// hashing guarantees only the moved arc changes owner.
func (c *Coordinator) syncMembers(st *schedState, initial bool) {
	st.version = c.members.Version()
	snap := c.members.Snapshot()
	seen := make(map[string]bool, len(snap))
	caps := make(map[string]int, len(snap))
	changed := st.ring == nil
	for _, mem := range snap {
		seen[mem.URL] = true
		caps[mem.URL] = mem.Capacity
		if w, ok := st.byURL[mem.URL]; ok {
			if w.removed {
				// Rejoined after leaving: a fresh process, a fresh record.
				w.removed = false
				w.consecFails, w.ejections = 0, 0
				w.offlineUntil = time.Time{}
				w.lastErr = nil
				delete(st.gone, w.url)
				changed = true
				c.noteMemberEvent("join", w.url, "re-registered", initial)
			}
			continue
		}
		w := &workerState{url: mem.URL}
		st.byURL[mem.URL] = w
		st.workers = append(st.workers, w)
		changed = true
		c.noteMemberEvent("join", w.url, "", initial)
	}
	for _, w := range st.workers {
		if w.removed || seen[w.url] {
			continue
		}
		w.removed = true
		st.gone[w.url] = w
		changed = true
		c.noteMemberEvent("leave", w.url, "", initial)
		if w.cancel != nil {
			// Migrate the lease now: the attempt's context is torn down,
			// its goroutine reports back, and the shard redispatches to a
			// surviving worker without waiting out LeaseTimeout.
			w.cancel()
			c.reg.Counter("pd_fabric_drain_migrations_total").Inc()
			c.logf("fabric: %s left the fleet mid-attempt; migrating its lease", w.url)
		}
	}
	if changed {
		// The ring weights each live member's arc by its advertised
		// capacity, so a beefy worker absorbs proportionally more kernels.
		liveCaps := make(map[string]int, len(st.workers))
		for _, w := range st.workers {
			if !w.removed {
				liveCaps[w.url] = caps[w.url]
			}
		}
		st.ring = NewWeightedRing(liveCaps, c.cfg.VirtualNodes)
		if !initial {
			c.reg.Counter("pd_fabric_ring_rebalances_total").Inc()
		}
		c.reg.Gauge("pd_fabric_members").Set(int64(len(liveCaps)))
	}
}

// noteMemberEvent logs and (when a journal is attached) write-ahead-logs
// one membership event. The initial roster is not an event — only churn
// observed during the job lands in the journal's forensic record.
func (c *Coordinator) noteMemberEvent(event, url, reason string, initial bool) {
	// The trace and live event stream see the initial roster too — a fleet
	// trace without its members would start in the dark. Only the journal
	// restricts itself to churn observed during the job.
	kind := obs.EvMemberJoin
	if event == "leave" {
		kind = obs.EvMemberLeave
	}
	c.fleetEvent(kind, "", url, reason, "", 0)
	if initial {
		return
	}
	c.logf("fabric: member %s: %s %s", event, url, reason)
	if c.cfg.Journal != nil {
		// Best-effort: a failed membership note must not fail the job —
		// it records fleet history, not results.
		_ = c.cfg.Journal.RecordMember(event, url, reason)
	}
}

// fleetFailures renders the tombstones' last per-worker failures for the
// all-workers-dead post-mortem.
func fleetFailures(gone map[string]*workerState) string {
	urls := make([]string, 0, len(gone))
	for u := range gone {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	parts := make([]string, 0, len(urls))
	for _, u := range urls {
		if err := gone[u].lastErr; err != nil {
			parts = append(parts, fmt.Sprintf("%s: %v", u, err))
		} else {
			parts = append(parts, u+": left the fleet")
		}
	}
	return strings.Join(parts, "; ")
}

// runTasks drives every task to completion (or the job to failure) across
// the fleet. It returns nil only when every task has a committed result.
func (c *Coordinator) runTasks(ctx context.Context, kind string, tasks []*task) error {
	st := &schedState{
		byURL: make(map[string]*workerState),
		gone:  make(map[string]*workerState),
	}
	c.syncMembers(st, true)
	c.logf("fabric: scheduling %d %s tasks over %d workers (jitter seed %d)", len(tasks), kind, st.live(), c.seed)
	c.trace.beginJob(kind)
	defer c.trace.endJob()
	c.cfg.Progress.Start(kind, len(tasks))
	defer c.cfg.Progress.Finish()

	// Buffered so in-flight attempts can always report, even after an
	// early return: at most two attempts (original + hedge) per task.
	done := make(chan attemptEnd, 2*len(tasks)+1)
	notify := c.members.Notify()

	remaining := 0
	for _, t := range tasks {
		if !t.done {
			remaining++
		}
	}
	outstanding := 0

	fail := func(err error) error {
		for _, t := range tasks {
			t.cancelAll()
		}
		return err
	}

	for remaining > 0 {
		if c.members.Version() != st.version {
			c.syncMembers(st, false)
		}
		now := time.Now()

		// Dispatch: fresh work first, then hedges for stragglers.
		for _, t := range tasks {
			if t.done || t.inflight != 0 || now.Before(t.notBefore) {
				continue
			}
			w := c.workerFor(t, st, now, false)
			if w == nil {
				continue
			}
			c.launch(ctx, t, w, done)
			outstanding++
		}
		if c.cfg.HedgeAfter > 0 {
			for _, t := range tasks {
				if t.done || t.inflight != 1 || now.Sub(t.launched) < c.cfg.HedgeAfter {
					continue
				}
				w := c.workerFor(t, st, now, true)
				if w == nil {
					continue
				}
				c.reg.Counter(`pd_fabric_hedges_total{kind="` + kind + `"}`).Inc()
				c.logf("fabric: hedging %s on %s (first attempt %v old)", t.label, w.url, now.Sub(t.launched).Round(time.Millisecond))
				c.launch(ctx, t, w, done)
				outstanding++
			}
		}

		// A fleet with no live members and no attempts left to drain
		// cannot make progress. If members failed their way out, that is
		// the job's post-mortem — fail fast with each worker's last
		// failure instead of idling until the campaign deadline. If the
		// fleet simply hasn't assembled yet (discovery mode), wait for a
		// registration to wake the loop.
		if outstanding == 0 && st.live() == 0 && len(st.gone) > 0 {
			return fail(fmt.Errorf("fabric: all %d workers failed and left the fleet with %d tasks unfinished: %s",
				len(st.gone), remaining, fleetFailures(st.gone)))
		}

		// Wait for an attempt to finish, a backoff/ejection/hedge deadline
		// to pass, the fleet to change, or the whole job to be cancelled.
		var timerC <-chan time.Time
		var timer *time.Timer
		if wake, ok := c.nextWake(tasks, st.workers, now); ok {
			d := time.Until(wake)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		} else if outstanding == 0 && st.live() > 0 {
			// Live workers, no attempts in flight and nothing scheduled to
			// become runnable: the loop would block forever. Cannot happen
			// (ejections and backoffs are finite), but fail loudly rather
			// than hang if the invariant breaks.
			return fail(fmt.Errorf("fabric: scheduler stalled with %d tasks remaining", remaining))
		}

		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return fail(context.Cause(ctx))
		case <-notify:
			if timer != nil {
				timer.Stop()
			}
			continue // sync at the top of the loop
		case <-timerC:
			continue
		case ev := <-done:
			if timer != nil {
				timer.Stop()
			}
			outstanding--
			ev.w.busy = false
			ev.w.cancel = nil
			ev.t.inflight--
			// Close the attempt span and file the fetched worker batch —
			// winners, losers and failures all land in the fleet trace.
			ev.at.finish()
			if ev.t.done {
				// A hedge mate already won. A loser's error is expected
				// (we cancelled it) and says nothing about worker health;
				// a second success still clears the worker's record.
				if ev.err == nil {
					ev.w.consecFails = 0
				}
				continue
			}
			if ev.err == nil {
				ev.w.consecFails = 0
				ev.t.done = true
				ev.t.result = ev.res
				ev.t.cancelAll()
				remaining--
				c.reg.Counter(`pd_fabric_shards_total{kind="` + kind + `"}`).Inc()
				c.cfg.Progress.ShardDone()
				c.fleetEvent(obs.EvShardDone, ev.t.label, ev.w.url, "", ev.at.id(), 0)
				if n := detectionCount(ev.res); n > 0 {
					c.fleetEvent(obs.EvDetectionFound, ev.t.label, ev.w.url, "", ev.at.id(), n)
				}
				if ev.t.onDone != nil {
					if err := ev.t.onDone(ev.res); err != nil {
						return fail(fmt.Errorf("fabric: committing %s: %w", ev.t.label, err))
					}
				}
				continue
			}
			if ev.w.removed {
				// Departure migration, not a fault: the worker left the
				// fleet while this attempt ran. Neither the task's attempt
				// budget nor anyone's health record pays for it — the
				// shard simply redispatches to a surviving worker.
				c.reg.Counter("pd_fabric_reassignments_total").Inc()
				c.fleetEvent(obs.EvLeaseMigrate, ev.t.label, ev.w.url, "departed", ev.at.id(), 0)
				c.logf("fabric: %s migrated off departed %s", ev.t.label, ev.w.url)
				continue
			}
			if err := c.noteFailure(ev, kind, time.Now()); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}

// launch starts one attempt of t on w under a lease: a per-attempt
// deadline after which the coordinator stops waiting and reassigns the
// shard, whatever the worker is (or isn't) doing.
func (c *Coordinator) launch(ctx context.Context, t *task, w *workerState, done chan<- attemptEnd) {
	// Classify the dispatch before mutating attempt state: a second
	// in-flight attempt is a hedge, a first attempt after failures a retry.
	outcome := "fresh"
	switch {
	case t.inflight > 0:
		outcome = "hedge"
	case t.failures > 0:
		outcome = "retry"
	}
	at := c.trace.beginAttempt(t.label, w.url)
	c.fleetEvent(obs.EvShardDispatch, t.label, w.url, outcome, at.id(), 0)
	actx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	actx = withAttempt(actx, at)
	t.cancels = append(t.cancels, cancel)
	w.busy = true
	w.cancel = cancel
	t.lastURL = w.url
	t.inflight++
	if t.inflight == 1 {
		t.launched = time.Now()
	}
	go func() {
		defer cancel()
		res, err := t.call(actx, w.url)
		if err != nil && actx.Err() != nil && ctx.Err() == nil {
			// The lease expired (or the attempt was torn down — a hedge
			// mate won, or the worker left the fleet), not the job: mark
			// it so the loop reports a reassignment, not a worker fault.
			err = &callError{leaseExpired: true, err: err}
		}
		done <- attemptEnd{t: t, w: w, res: res, err: err, at: at}
		// Only after reporting: collect the worker's span batch while the
		// attempt is still warm in its trace store. Off the shard critical
		// path — the scheduler dispatches the next shard without waiting
		// for this best-effort, short-deadline fetch.
		at.collect(c.client)
	}()
}

// workerFor picks the worker for one attempt of t by walking the
// consistent-hash ring from the task's kernel key: the arc owner first —
// its compile cache is the one this kernel warmed — then each fallback in
// ring order, which keeps even the second choice sticky per kernel. The
// robustness rules layer on top of the walk: ejected, throttled, removed
// and busy workers are skipped; a retry never goes straight back to the
// worker that just failed it when the fleet has an alternative — waiting
// for a busy healthy worker beats burning MaxAttempts against a dead
// port — and a hedge never lands on the worker running the attempt it is
// meant to outrun.
func (c *Coordinator) workerFor(t *task, st *schedState, now time.Time, hedge bool) *workerState {
	order := st.ring.Order(t.key)
	avoid := ""
	if hedge {
		avoid = t.lastURL
	} else if len(order) > 1 {
		avoid = t.lastFailURL
	}
	for i, url := range order {
		w := st.byURL[url]
		if w == nil || !w.eligible(now) || url == avoid {
			continue
		}
		if i == 0 {
			c.reg.Counter("pd_fabric_ring_affinity_hits_total").Inc()
		} else {
			c.reg.Counter("pd_fabric_ring_fallbacks_total").Inc()
		}
		return w
	}
	return nil
}

// nextWake returns the earliest future instant at which the dispatch
// picture can change without an attempt finishing or the fleet changing:
// a task's backoff expiring, a worker's ejection/throttle window closing,
// or a sole in-flight attempt crossing the hedge threshold.
func (c *Coordinator) nextWake(tasks []*task, workers []*workerState, now time.Time) (time.Time, bool) {
	var wake time.Time
	consider := func(at time.Time) {
		if at.After(now) && (wake.IsZero() || at.Before(wake)) {
			wake = at
		}
	}
	for _, t := range tasks {
		if t.done {
			continue
		}
		if t.inflight == 0 {
			consider(t.notBefore)
		}
		if c.cfg.HedgeAfter > 0 && t.inflight == 1 {
			consider(t.launched.Add(c.cfg.HedgeAfter))
		}
	}
	for _, w := range workers {
		if !w.busy && !w.removed {
			consider(w.offlineUntil)
		}
	}
	return wake, !wake.IsZero()
}

// noteFailure applies one failed attempt to worker health and task retry
// state. It returns a non-nil error only when the job as a whole must
// stop: a permanent (non-retryable) response or a task out of attempts.
func (c *Coordinator) noteFailure(ev attemptEnd, kind string, now time.Time) error {
	t, w := ev.t, ev.w
	ce, _ := ev.err.(*callError)

	if ce != nil && ce.status == 429 {
		// Backpressure, not breakage: the worker told us when to come
		// back. Honor the window, try the shard elsewhere immediately,
		// and leave the worker's health record untouched.
		d := ce.retryAfter
		if d <= 0 {
			d = time.Second
		}
		w.offlineUntil = now.Add(d)
		c.reg.Counter("pd_fabric_throttles_total").Inc()
		c.fleetEvent(obs.EvShardRetry, t.label, w.url, "throttled", ev.at.id(), 0)
		c.logf("fabric: %s throttled (Retry-After %v), shard %s goes elsewhere", w.url, d, t.label)
		return nil
	}

	if ce != nil && ce.leaseExpired {
		c.reg.Counter("pd_fabric_reassignments_total").Inc()
		c.fleetEvent(obs.EvLeaseMigrate, t.label, w.url, "lease-expired", ev.at.id(), 0)
		c.logf("fabric: lease on %s expired at %s, reassigning", t.label, w.url)
	}

	t.lastFailURL = w.url
	w.consecFails++
	w.lastErr = ev.err
	if w.consecFails >= c.cfg.EjectAfter && now.After(w.offlineUntil) {
		// Eject. consecFails stays at the threshold: when the probation
		// window passes the worker is re-admitted, but its next failure
		// re-ejects it instantly — one strike on probation.
		w.offlineUntil = now.Add(c.cfg.Probation)
		w.ejections++
		c.reg.Counter("pd_fabric_ejections_total").Inc()
		c.logf("fabric: ejecting %s for %v after %d consecutive failures", w.url, c.cfg.Probation, w.consecFails)
		if c.cfg.DeadAfter > 0 && w.ejections >= c.cfg.DeadAfter {
			// Probation has been tried and failed DeadAfter times over:
			// declare the worker dead and strike it from the roster. The
			// membership notify wakes the loop, which tombstones it; only
			// a fresh registration brings it back.
			c.reg.Counter("pd_fabric_member_deaths_total").Inc()
			c.fleetEvent(obs.EvMemberDead, "", w.url, fmt.Sprintf("%d ejections", w.ejections), "", 0)
			c.logf("fabric: declaring %s dead after %d ejections (last error: %v)", w.url, w.ejections, ev.err)
			c.members.Leave(w.url, fmt.Sprintf("declared dead after %d ejections (last error: %v)", w.ejections, ev.err))
		}
	}

	if ce != nil && ce.permanent {
		return fmt.Errorf("fabric: %s rejected by %s as unretryable: %w", t.label, w.url, ev.err)
	}
	t.failures++
	if t.failures >= c.cfg.MaxAttempts {
		return fmt.Errorf("fabric: %s failed %d times, last on %s: %w", t.label, t.failures, w.url, ev.err)
	}
	t.notBefore = now.Add(c.backoff(t.failures))
	c.reg.Counter(`pd_fabric_shard_retries_total{kind="` + kind + `"}`).Inc()
	retryWhy := "transport"
	if ce != nil && ce.status != 0 {
		retryWhy = fmt.Sprintf("http-%d", ce.status)
	}
	c.fleetEvent(obs.EvShardRetry, t.label, w.url, retryWhy, ev.at.id(), 0)
	c.logf("fabric: %s attempt %d failed on %s (%v), retrying after %v", t.label, t.failures, w.url, ev.err, time.Until(t.notBefore).Round(time.Millisecond))
	return nil
}

// backoff returns the wait before attempt n+1: capped exponential growth
// with full jitter on the upper half, so a fleet of retries decorrelates
// instead of thundering back in lockstep. The jitter stream is seeded
// (Config.JitterSeed): replaying a job with the same seed replays the
// same backoff schedule, which is what makes a chaos-harness failure
// reproducible.
func (c *Coordinator) backoff(failures int) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < failures && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	c.rngMu.Lock()
	jit := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + jit
}
