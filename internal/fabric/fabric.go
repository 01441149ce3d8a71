// Package fabric is the coordinator side of the distributed campaign /
// profile fabric: it partitions an embarrassingly-parallel sweep into
// seed-range shards, dispatches them to pdserve workers over HTTP, and
// merges the results into reports byte-identical to a sequential
// single-process run.
//
// The determinism argument is structural, not statistical. Every campaign
// run is a pure function of (config, run index) — the per-run PRNG stream
// is Mix(seed, run), never shared state — so a shard computed on any
// worker, at any time, after any number of retries, yields the same
// RunResult values. The coordinator therefore only has to guarantee
// coverage (every run present exactly once in the merged report) and
// consistency (duplicates and golden info agree), both of which
// faultinject.AssembleReport verifies before emitting a report. Worker
// count, shard size, retry schedules, hedging and crashes can change
// which machine computes a run, but never what the run computes.
//
// Robustness is the point of the package: per-shard retry with capped
// exponential backoff and jitter, Retry-After-honoring flow control,
// consecutive-failure worker ejection with probation re-admission,
// lease-based shard assignment so a hung worker's shard is reassigned,
// hedged requests for stragglers, and crash-safe coordinator state in the
// campaign's WAL journal so a killed coordinator resumes without
// re-running completed work.
package fabric

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
)

// Config configures a Coordinator. Zero values get production-shaped
// defaults; only Workers is mandatory.
type Config struct {
	// Workers are the pdserve base URLs shards are dispatched to. They
	// become static members of the fleet roster: exempt from heartbeat
	// expiry, otherwise scheduled like any dynamically registered worker.
	Workers []string
	// Members, when set, is a shared fleet roster the scheduler follows
	// mid-job: workers that register (see Registrar) start receiving
	// shards, workers that leave have their leases migrated immediately.
	// With Members set, Workers may be empty — the coordinator waits for
	// the first registration. When nil, a private roster is built from
	// Workers.
	Members *Membership
	// DeadAfter is the ejection count that upgrades a worker's verdict
	// from "unlucky" to "dead": the worker is removed from the roster and
	// only a fresh registration re-admits it (default 4; negative
	// disables death verdicts, ejection/probation cycles forever).
	DeadAfter int
	// JitterSeed seeds the backoff/hedge jitter stream (0 derives a seed
	// from the clock). A fixed seed makes retry schedules reproducible —
	// scheduler tests assert exact backoff sequences, and the chaos
	// harness replays a failing schedule byte for byte.
	JitterSeed int64
	// ShardSize is the number of runs per shard (default 16). Smaller
	// shards lose less work per failure and spread better; larger ones
	// amortize the per-shard golden pass.
	ShardSize int
	// MaxAttempts bounds failed attempts per shard before the whole job
	// errors out (default 5). Retry-After throttles don't count.
	MaxAttempts int
	// BaseBackoff seeds the capped exponential backoff between a shard's
	// attempts (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 5s).
	MaxBackoff time.Duration
	// LeaseTimeout bounds one attempt: when it expires the coordinator
	// abandons the attempt and reassigns the shard, which is how work
	// escapes a hung — as opposed to dead — worker (default 2m).
	LeaseTimeout time.Duration
	// HedgeAfter launches a duplicate attempt of a shard whose sole
	// outstanding attempt has been running this long, when an idle worker
	// is available; first answer wins, the loser is cancelled. 0 uses the
	// default (30s); negative disables hedging.
	HedgeAfter time.Duration
	// EjectAfter is the consecutive-failure count that ejects a worker
	// (default 3). An ejected worker re-enters after Probation with its
	// record intact: one more failure re-ejects it immediately, one
	// success fully re-admits it.
	EjectAfter int
	// Probation is the ejection window (default 10s).
	Probation time.Duration
	// Client is the HTTP client (default a fresh one; per-attempt
	// deadlines come from LeaseTimeout, not a client timeout).
	Client *http.Client
	// Metrics, when set, receives fabric counters: shards, retries,
	// hedges, ejections, reassignments, throttles, resumed runs.
	Metrics *obs.Registry
	// Journal, when set, write-ahead-logs every merged run result and each
	// architecture's golden info in the same WAL format the in-process
	// campaign uses. A restarted coordinator pointed at the same journal
	// re-dispatches only the missing runs — completed shards are never
	// re-run — and produces the same report bytes.
	Journal *faultinject.Journal
	// Trace, when set, collects a fleet-wide distributed trace: the
	// scheduler opens a span per attempt, stamps its id onto the shard
	// request (X-Request-Id + traceparent), and fetches each worker's
	// span batch after the attempt — Trace.WriteChrome merges it all into
	// one Perfetto-loadable file.
	Trace *FleetTrace
	// Events, when set, receives every fleet-scheduler event (dispatches,
	// retries, lease migrations, membership churn, detections) for live
	// streaming — the /fleet/events SSE endpoint subscribes here.
	Events *Bus
	// Progress, when set, is updated as shards complete so GET
	// /fleet/status can report completion and ETA mid-job.
	Progress *Progress
	// Logf, when set, receives human-oriented scheduling events (retries,
	// ejections, hedges, lease expiries).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Minute
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 30 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.Probation <= 0 {
		c.Probation = 10 * time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 4
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Coordinator owns a worker fleet and schedules shards onto it.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	reg     *obs.Registry
	members *Membership
	trace   *FleetTrace
	seed    int64

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter only — never touches results
}

// New builds a Coordinator. The fleet comes from cfg.Workers (joined as
// static members), cfg.Members (a shared dynamic roster), or both; it
// fails fast only when neither is supplied.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 && cfg.Members == nil {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	members := cfg.Members
	if members == nil {
		members = NewMembership()
	}
	for i, u := range cfg.Workers {
		if err := members.JoinStatic(u); err != nil {
			return nil, fmt.Errorf("fabric: worker at index %d: %v", i, err)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // throwaway: keeps counter calls unconditional
	}
	members.setMetrics(reg)
	if cfg.Logf != nil {
		members.SetLogf(cfg.Logf)
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		reg:     reg,
		members: members,
		trace:   cfg.Trace,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Members exposes the coordinator's fleet roster — the same Membership a
// Registrar mounts for dynamic registration.
func (c *Coordinator) Members() *Membership { return c.members }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// RunCampaign executes a fault-injection campaign across the worker
// fleet and returns a report byte-identical to
// faultinject.RunCampaign(ccfg) on one machine. With a Journal attached,
// results are WAL-logged as shards complete and a re-invocation after a
// coordinator crash re-dispatches only what the journal is missing.
func (c *Coordinator) RunCampaign(ctx context.Context, ccfg faultinject.CampaignConfig) (*faultinject.Report, error) {
	arches, err := ccfg.EffectiveArches()
	if err != nil {
		return nil, err
	}
	runs := ccfg.EffectiveRuns()
	wire := ccfg.Wire()
	j := c.cfg.Journal

	// Journal prefill: replayed runs skip the fabric entirely. The rest of
	// the run space is cut into contiguous missing-run spans of at most
	// ShardSize — a partially journaled shard re-dispatches only its gap.
	prefill := make(map[string][]faultinject.RunResult, len(arches))
	var tasks []*task
	resumed := 0
	for _, arch := range arches {
		arch := arch
		spanStart := -1
		flush := func(end int) {
			if spanStart < 0 {
				return
			}
			for lo := spanStart; lo < end; lo += c.cfg.ShardSize {
				hi := lo + c.cfg.ShardSize
				if hi > end {
					hi = end
				}
				tasks = append(tasks, c.campaignTask(wire, arch, lo, hi))
			}
			spanStart = -1
		}
		for run := 0; run < runs; run++ {
			if j != nil {
				if rr, ok := j.Lookup(arch, run); ok {
					flush(run)
					prefill[arch] = append(prefill[arch], rr)
					resumed++
					continue
				}
			}
			if spanStart < 0 {
				spanStart = run
			}
		}
		flush(runs)
		if _, ok := goldenFromJournal(j, arch); !ok && len(prefill[arch]) == runs {
			// Fully journaled architecture with no golden record (the
			// journal predates golden records, or came from an in-process
			// campaign): one golden probe recovers the report header data
			// with zero re-runs.
			tasks = append(tasks, c.campaignTask(wire, arch, 0, 0))
		}
	}
	if resumed > 0 {
		c.reg.Counter("pd_fabric_resumed_runs_total").Add(int64(resumed))
		c.logf("fabric: journal replays %d of %d runs", resumed, runs*len(arches))
	}

	if err := c.runTasks(ctx, "campaign", tasks); err != nil {
		return nil, err
	}

	shards := make([]*faultinject.ShardResult, 0, len(tasks)+len(arches))
	goldenSeen := make(map[string]faultinject.ArchInfo, len(arches))
	for _, t := range tasks {
		res := t.result.(*faultinject.ShardResult)
		shards = append(shards, res)
		if _, ok := goldenSeen[res.Arch]; !ok {
			goldenSeen[res.Arch] = res.Golden
		}
	}
	for _, arch := range arches {
		g, ok := goldenFromJournal(j, arch)
		if !ok {
			g, ok = goldenSeen[arch]
		}
		if len(prefill[arch]) == 0 {
			continue // nothing replayed; dispatched shards carry their own golden
		}
		if !ok {
			return nil, fmt.Errorf("fabric: no golden info recovered for %s", arch)
		}
		shards = append(shards, &faultinject.ShardResult{
			Version: faultinject.ShardVersion, Arch: arch, Golden: g, Results: prefill[arch],
		})
	}
	return faultinject.AssembleReport(ccfg, shards)
}

// campaignTask wraps one shard range as a scheduler task. The task's
// commit hook lands the shard in the journal (golden first, then each
// run, every record fsync'd) — once runTasks returns, a kill -9 of the
// coordinator loses nothing.
func (c *Coordinator) campaignTask(wire faultinject.WireConfig, arch string, lo, hi int) *task {
	label := fmt.Sprintf("%s[%d,%d)", arch, lo, hi)
	if lo == hi {
		label = fmt.Sprintf("%s golden probe", arch)
	}
	req := faultinject.ShardRequest{Version: faultinject.ShardVersion, Config: wire, Arch: arch, Lo: lo, Hi: hi}
	return &task{
		label: label,
		call: func(ctx context.Context, workerURL string) (any, error) {
			return c.postCampaignShard(ctx, workerURL, req)
		},
		onDone: func(res any) error {
			if c.cfg.Journal == nil {
				return nil
			}
			sh := res.(*faultinject.ShardResult)
			if err := c.cfg.Journal.RecordGolden(sh.Arch, sh.Golden); err != nil {
				return err
			}
			for _, rr := range sh.Results {
				if err := c.cfg.Journal.Record(sh.Arch, rr); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func goldenFromJournal(j *faultinject.Journal, arch string) (faultinject.ArchInfo, bool) {
	if j == nil {
		return faultinject.ArchInfo{}, false
	}
	return j.GoldenInfo(arch)
}

// ProfileSweep describes a distributed profiling sweep: Runs executions
// of one kernel, shadow-profiled, merged into one canonical profile.
type ProfileSweep struct {
	Kernel    string
	N         int
	Posit     bool
	Runs      int
	Sample    int
	Precision uint
	// Oracle names the shadow-arithmetic backend ("" = bigfp); it rides
	// the shard wire so every worker profiles under the same oracle.
	Oracle string
}

// RunProfile executes the sweep across the worker fleet and returns a
// profile whose canonical JSON (profile.WriteJSON) is byte-identical to a
// single-process harness.RecordProfile of the same total run count: every
// run of a kernel is identical, and profile.Merge is commutative with
// Runs additive. Exactly one result per shard is merged — a hedge's
// losing duplicate is discarded, never double-counted.
func (c *Coordinator) RunProfile(ctx context.Context, sweep ProfileSweep) (*profile.Profile, error) {
	runs := sweep.Runs
	if runs <= 0 {
		runs = 1
	}
	var tasks []*task
	for lo := 0; lo < runs; lo += c.cfg.ShardSize {
		size := c.cfg.ShardSize
		if lo+size > runs {
			size = runs - lo
		}
		req := harness.ProfileShard{
			Version: harness.ProfileShardVersion,
			Kernel:  sweep.Kernel, N: sweep.N, Posit: sweep.Posit,
			Runs: size, Sample: sweep.Sample, Precision: sweep.Precision,
			Oracle: sweep.Oracle,
		}
		label := fmt.Sprintf("profile %s[%d,%d)", sweep.Kernel, lo, lo+size)
		tasks = append(tasks, &task{
			label: label,
			call: func(ctx context.Context, workerURL string) (any, error) {
				return c.postProfileShard(ctx, workerURL, req)
			},
		})
	}
	if err := c.runTasks(ctx, "profile", tasks); err != nil {
		return nil, err
	}
	parts := make([]*profile.Profile, 0, len(tasks))
	for _, t := range tasks {
		parts = append(parts, t.result.(*profile.Profile))
	}
	return profile.MergeAll(parts...)
}
