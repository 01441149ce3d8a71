package faultinject

import (
	"context"
	"fmt"
	"sort"
	"time"

	"positdebug/internal/parallel"
	"positdebug/internal/shadow/oracle"
)

func durationNS(ns int64) time.Duration { return time.Duration(ns) }

// ShardVersion guards the coordinator↔worker shard exchange format. A
// worker rejects requests from a coordinator speaking a different version
// rather than risk classifying runs under mismatched semantics: the whole
// fabric's byte-identity guarantee rests on every party running the same
// classification code.
const ShardVersion = 1

// WireConfig is CampaignConfig reduced to its serializable,
// result-determining fields — no Trace/Metrics/Journal, which are local
// concerns of whichever process runs the shard. Values are raw
// (pre-default), exactly as a CLI would build them, so defaulting happens
// once at the execution site and the −1 MaskedBits sentinel survives the
// wire.
type WireConfig struct {
	Workload       string `json:"workload"`
	N              int    `json:"n,omitempty"`
	Arch           string `json:"arch,omitempty"`
	Runs           int    `json:"runs,omitempty"`
	Seed           int64  `json:"seed"`
	Model          Model  `json:"model"`
	TimeoutNS      int64  `json:"timeout_ns,omitempty"`
	MaxSteps       int64  `json:"max_steps,omitempty"`
	Precision      uint   `json:"precision,omitempty"`
	Oracle         string `json:"oracle,omitempty"`
	MaxShadowBytes int64  `json:"max_shadow_bytes,omitempty"`
	MaskedBits     int    `json:"masked_bits,omitempty"`
	KeepSchedules  bool   `json:"keep_schedules,omitempty"`
}

// Wire extracts the serializable campaign parameters.
func (c CampaignConfig) Wire() WireConfig {
	return WireConfig{
		Workload: c.Workload, N: c.N, Arch: c.Arch, Runs: c.Runs,
		Seed: c.Seed, Model: c.Model,
		TimeoutNS: int64(c.Timeout), MaxSteps: c.MaxSteps,
		Precision: c.Precision, Oracle: string(c.Oracle),
		MaxShadowBytes: c.MaxShadowBytes,
		MaskedBits:     c.MaskedBits, KeepSchedules: c.KeepSchedules,
	}
}

// Campaign rebuilds the campaign config the wire form describes.
func (w WireConfig) Campaign() CampaignConfig {
	return CampaignConfig{
		Workload: w.Workload, N: w.N, Arch: w.Arch, Runs: w.Runs,
		Seed: w.Seed, Model: w.Model,
		Timeout: durationNS(w.TimeoutNS), MaxSteps: w.MaxSteps,
		Precision: w.Precision, Oracle: oracle.Kind(w.Oracle),
		MaxShadowBytes: w.MaxShadowBytes,
		MaskedBits:     w.MaskedBits, KeepSchedules: w.KeepSchedules,
	}
}

// EffectiveRuns returns the campaign's defaulted run count — what a shard
// partitioner must cover without applying (and re-applying) the full
// default set itself.
func (c CampaignConfig) EffectiveRuns() int { return c.withDefaults().Runs }

// EffectiveArches returns the architectures the campaign sweeps, in report
// order.
func (c CampaignConfig) EffectiveArches() ([]string, error) {
	switch a := c.withDefaults().Arch; a {
	case "posit", "float":
		return []string{a}, nil
	case "both":
		return []string{"posit", "float"}, nil
	default:
		return nil, fmt.Errorf("faultinject: unknown arch %q (want posit|float|both)", a)
	}
}

// ArchInfo is the golden + calibration pass's output for one architecture:
// the reference value runs are classified against and the eligible
// injection-event count the single-fault mode sweeps over. Every shard of
// an architecture recomputes it, which gives the coordinator a cheap skew
// detector: two workers disagreeing on ArchInfo are not running the same
// experiment.
type ArchInfo struct {
	GoldenValue float64  `json:"golden_value"`
	GoldenKinds []string `json:"golden_kinds,omitempty"`
	Candidates  int64    `json:"candidates"`
}

func (a ArchInfo) equal(b ArchInfo) bool {
	if a.GoldenValue != b.GoldenValue || a.Candidates != b.Candidates ||
		len(a.GoldenKinds) != len(b.GoldenKinds) {
		return false
	}
	for i := range a.GoldenKinds {
		if a.GoldenKinds[i] != b.GoldenKinds[i] {
			return false
		}
	}
	return true
}

// ShardRequest asks a worker to execute the runs [Lo, Hi) of one
// architecture of a campaign. Lo == Hi is a golden probe: the worker runs
// only the golden + calibration pass and returns the ArchInfo with no run
// results — how a resumed coordinator recovers golden data without
// re-running any journaled work.
type ShardRequest struct {
	Version int        `json:"version"`
	Config  WireConfig `json:"config"`
	Arch    string     `json:"arch"`
	Lo      int        `json:"lo"`
	Hi      int        `json:"hi"`
}

// Validate rejects malformed or version-skewed shard requests.
func (r ShardRequest) Validate() error {
	if r.Version != ShardVersion {
		return fmt.Errorf("faultinject: shard version %d, this worker speaks %d", r.Version, ShardVersion)
	}
	if r.Arch != "posit" && r.Arch != "float" {
		return fmt.Errorf("faultinject: shard arch %q (want posit|float)", r.Arch)
	}
	runs := r.Config.Campaign().withDefaults().Runs
	if r.Lo < 0 || r.Hi < r.Lo || r.Hi > runs {
		return fmt.Errorf("faultinject: shard range [%d,%d) outside campaign runs %d", r.Lo, r.Hi, runs)
	}
	return nil
}

// ShardResult is the worker's answer: the shard's classified runs in
// run-index order plus the golden info they were classified against.
type ShardResult struct {
	Version int         `json:"version"`
	Arch    string      `json:"arch"`
	Lo      int         `json:"lo"`
	Hi      int         `json:"hi"`
	Golden  ArchInfo    `json:"golden"`
	Results []RunResult `json:"results"`
}

// RunShard executes one shard of a campaign: the golden + calibration pass
// followed by the fault-injected runs [req.Lo, req.Hi), classified exactly
// as RunCampaign would classify them (same prepArch + oneRun path). Each
// run is a pure function of Mix(seed, run), so a shard computed on any
// machine slots into the campaign's result sequence unchanged.
func RunShard(ctx context.Context, req ShardRequest) (*ShardResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	cfg := req.Config.Campaign().withDefaults()
	src, _, err := ResolveWorkload(cfg.Workload, cfg.N)
	if err != nil {
		return nil, err
	}
	p, err := prepArch(ctx, cfg, req.Arch, src, req.Lo != req.Hi)
	if err != nil {
		return nil, err
	}
	out := &ShardResult{Version: ShardVersion, Arch: req.Arch, Lo: req.Lo, Hi: req.Hi, Golden: p.info}
	if req.Lo == req.Hi {
		return out, nil // golden probe
	}

	results, err := parallel.MapCtx(ctx, req.Hi-req.Lo, func(i int) (RunResult, error) {
		return oneRun(ctx, cfg, p, req.Lo+i)
	})
	if err != nil {
		return nil, asCancelled(ctx, err)
	}
	// Canonicalize for the wire: per-run events are process-local (they
	// never cross the fabric, mirroring journal-resume semantics) and
	// schedules travel only when the campaign keeps them.
	for i := range results {
		results[i].events = nil
		if !cfg.KeepSchedules {
			results[i].Schedule = nil
		}
	}
	out.Results = results
	return out, nil
}

// AssembleReport merges shard results — any order, any worker mix,
// duplicates from hedged requests or journal overlap welcome — into the
// campaign report. The output is byte-identical to RunCampaign on the same
// config: coverage must be exact (every run of every architecture present
// at least once), golden info must agree across all shards of an
// architecture, and duplicated runs must agree with each other; any
// violation is an error, because it means two workers computed different
// answers to the same pure function.
func AssembleReport(cfg CampaignConfig, shards []*ShardResult) (*Report, error) {
	dcfg := cfg.withDefaults()
	_, n, err := ResolveWorkload(dcfg.Workload, dcfg.N)
	if err != nil {
		return nil, err
	}
	arches, err := dcfg.EffectiveArches()
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Workload: dcfg.Workload, N: n, Runs: dcfg.Runs, Seed: dcfg.Seed,
		Model: dcfg.Model.Kind.String(), Precision: dcfg.Precision,
		Oracle: oracleLabel(dcfg.Oracle),
	}
	for _, arch := range arches {
		var info ArchInfo
		haveInfo := false
		byRun := make(map[int]RunResult)
		for _, sh := range shards {
			if sh == nil || sh.Arch != arch {
				continue
			}
			if !haveInfo {
				info, haveInfo = sh.Golden, true
			} else if !info.equal(sh.Golden) {
				return nil, fmt.Errorf("faultinject: %s golden info disagrees across shards (%+v vs %+v)", arch, info, sh.Golden)
			}
			for _, rr := range sh.Results {
				if prev, ok := byRun[rr.Run]; ok {
					if prev.Seed != rr.Seed || prev.Outcome != rr.Outcome || prev.ErrBits != rr.ErrBits {
						return nil, fmt.Errorf("faultinject: %s run %d classified differently by two shards (%s/%d vs %s/%d)",
							arch, rr.Run, prev.Outcome, prev.ErrBits, rr.Outcome, rr.ErrBits)
					}
					continue
				}
				byRun[rr.Run] = rr
			}
		}
		if !haveInfo {
			return nil, fmt.Errorf("faultinject: no shard carries %s golden info", arch)
		}
		results := make([]RunResult, 0, dcfg.Runs)
		for run := 0; run < dcfg.Runs; run++ {
			rr, ok := byRun[run]
			if !ok {
				return nil, fmt.Errorf("faultinject: %s run %d missing from shard results", arch, run)
			}
			results = append(results, rr)
		}
		rep.Arches = append(rep.Arches, *assembleArch(dcfg, arch, info, results))
	}
	return rep, nil
}

// SortShards orders shards by (arch, lo) — a convenience for stable logs;
// AssembleReport itself is order-independent.
func SortShards(shards []*ShardResult) {
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].Arch != shards[j].Arch {
			return shards[i].Arch < shards[j].Arch
		}
		return shards[i].Lo < shards[j].Lo
	})
}
