package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
)

// probeInjector is the injector of one compared run: the campaign's own
// resumer (with no checkpoint on the reference side), counting the
// restores and resets the machine makes, and optionally cancelling the
// run's context once the candidate count reaches cancelAt.
type probeInjector struct {
	*resumer
	restores, resets int
	cancelAt         int64
	cancel           context.CancelFunc
}

func (pi *probeInjector) Reset() {
	pi.resets++
	pi.resumer.Reset()
}

func (pi *probeInjector) RestoreCheckpoint(state any) bool {
	ok := pi.resumer.RestoreCheckpoint(state)
	if ok {
		pi.restores++
	}
	return ok
}

func (pi *probeInjector) Mutate(id int32, op ir.Op, typ ir.Type, bits uint64) (uint64, bool) {
	b, ok := pi.resumer.Mutate(id, op, typ, bits)
	if pi.cancel != nil && pi.candidates == pi.cancelAt {
		pi.cancel()
	}
	return b, ok
}

// runOutcome is everything one run reports: its result or error, its fault
// schedule and the metrics it added to an empty registry.
type runOutcome struct {
	Value    uint64
	Steps    int64
	Output   string
	Summary  any
	Degraded bool
	Err      string
	Schedule []Record
	Prom     string
}

// execSite runs the single-site model once. On the VM it resumes from the
// golden checkpoint resumeFrom picks; on the tree-walker it runs from
// step 0. It reports whether the run resumed.
func execSite(t *testing.T, p *archPrep, k backend.Kind, model Model, seed int64, lim interp.Limits, cancelAt int64) (runOutcome, bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pi := &probeInjector{resumer: &resumer{Injector: NewInjector(model, seed)}, cancelAt: cancelAt}
	if cancelAt > 0 {
		pi.cancel = cancel
	}
	if k == backend.VM {
		pi.from = p.resumeFrom(model.Occurrence)
	}
	reg := obs.NewRegistry()
	res, err := p.prog.Exec("main",
		positdebug.WithContext(ctx), positdebug.WithShadow(p.scfg), positdebug.WithBackend(k),
		positdebug.WithLimits(lim), positdebug.WithInjector(pi), positdebug.WithMetrics(reg))
	var out runOutcome
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Value, out.Steps, out.Output, out.Summary, out.Degraded = res.Value, res.Steps, res.Output, res.Summary, res.Degraded
	}
	out.Schedule = append([]Record(nil), pi.Schedule()...)
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out.Prom = prom.String()
	return out, pi.restores == 1 && pi.resets == 1
}

// TestResumedRunEqualsReplayedRun: a single-fault run that the VM resumes
// from a golden-run checkpoint reports exactly what the same run reports
// on the tree-walker from step 0 — result value, steps, output, summary,
// fault schedule and every metric — for PolyBench kernels on both
// architectures, a posit program whose checkpoints fall inside a callee,
// and sweeps restricted to call returns and to stores. Beside the
// campaign's own draws it runs, for every checkpoint, the site one
// candidate after the checkpoint's count, and for one checkpoint a step
// budget that trips after it and a context cancelled after it. Every
// compared run whose site lies past the first checkpoint must actually
// resume. It then compares whole campaigns (JSON with schedules, and the
// metrics dump) between the backends.
func TestResumedRunEqualsReplayedRun(t *testing.T) {
	for _, tc := range []struct {
		workload, arch string
		ops            OpClass
		inCallee       bool
	}{
		{"polybench/gemm", "posit", 0, false},
		{"polybench/gemm", "float", 0, false},
		{"polybench/durbin", "posit", 0, false},
		{"polybench/durbin", "float", 0, false},
		{"polybench/trisolv", "posit", 0, false},
		{"polybench/trisolv", "float", 0, false},
		{"suite/p_simpson_sum", "posit", 0, true},
		{"polybench/gemm", "posit", ClassCall, false},
		{"polybench/gemm", "float", ClassStore, false},
	} {
		name := fmt.Sprintf("%s/%s/ops=%d", tc.workload, tc.arch, tc.ops)
		t.Run(name, func(t *testing.T) {
			cfg := CampaignConfig{
				Workload: tc.workload, Arch: tc.arch, Runs: 8, Seed: 42, KeepSchedules: true,
				Model: Model{Kind: BitFlip, BitPos: -1, Ops: tc.ops},
				// Runs count error bits, and so take checkpoints, only
				// with a registry bound; each compared run binds its own.
				Metrics: obs.NewRegistry(),
			}.withDefaults()
			src, _, err := ResolveWorkload(cfg.Workload, cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			p, err := prepArch(context.Background(), cfg, tc.arch, src, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.checkpoints) < 2 {
				t.Fatalf("golden run kept %d checkpoints; want at least 2", len(p.checkpoints))
			}
			deep := false
			for _, c := range p.checkpoints {
				deep = deep || c.cp.Depth() > 1
			}
			if tc.inCallee && !deep {
				t.Errorf("no checkpoint fell inside a callee")
			}

			type site struct {
				model    Model
				seed     int64
				lim      interp.Limits
				cancelAt int64
				wantErr  string
			}
			var sites []site
			for run := 0; run < cfg.Runs; run++ {
				m := cfg.Model
				seed := Mix(cfg.Seed, run)
				rng := splitmix64{state: uint64(seed)}
				m.Occurrence = 1 + int64(rng.next()%uint64(p.info.Candidates))
				m.MaxInjections = 1
				sites = append(sites, site{model: m, seed: seed, lim: p.lim})
			}
			for i, c := range p.checkpoints {
				m := cfg.Model
				m.Occurrence, m.MaxInjections = c.count+1, 1
				sites = append(sites, site{model: m, seed: int64(i), lim: p.lim})
			}
			// A site at the count of a middle checkpoint's successor, so the
			// run resumes from the middle one; the budget trips, or the
			// context is cancelled, between the resume point and the site.
			// A sweep with too few eligible events between the two (call
			// returns) has no such site.
			mid, next := p.checkpoints[len(p.checkpoints)/2-1], p.checkpoints[len(p.checkpoints)/2]
			if next.count > mid.count+50 {
				m := cfg.Model
				m.Occurrence, m.MaxInjections = next.count, 1
				budget := p.lim
				budget.MaxSteps = mid.cp.Steps() + 3000
				sites = append(sites,
					site{model: m, seed: 7, lim: budget, wantErr: "resource exhausted"},
					site{model: m, seed: 7, lim: p.lim, cancelAt: mid.count + 50, wantErr: "run cancelled"})
			} else if tc.ops == 0 {
				t.Errorf("checkpoints %d and %d are only %d events apart", len(p.checkpoints)/2-1, len(p.checkpoints)/2, next.count-mid.count)
			}

			for _, s := range sites {
				got, resumed := execSite(t, p, backend.VM, s.model, s.seed, s.lim, s.cancelAt)
				want, _ := execSite(t, p, backend.Treewalk, s.model, s.seed, s.lim, s.cancelAt)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("site %d (budget %d, cancel at %d): resumed VM run differs from tree-walker run\nvm:       %+v\ntreewalk: %+v",
						s.model.Occurrence, s.lim.MaxSteps, s.cancelAt, got, want)
				}
				if s.model.Occurrence > p.checkpoints[0].count && !resumed {
					t.Errorf("site %d: the VM run did not resume", s.model.Occurrence)
				}
				if !strings.Contains(got.Err, s.wantErr) {
					t.Errorf("site %d (budget %d, cancel at %d): error %q, want one containing %q",
						s.model.Occurrence, s.lim.MaxSteps, s.cancelAt, got.Err, s.wantErr)
				}
			}

			campaign := func(k backend.Kind) (string, string) {
				c := cfg
				c.Backend = k
				c.Metrics = obs.NewRegistry()
				rep, err := RunCampaign(c)
				if err != nil {
					t.Fatal(err)
				}
				j, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				var prom bytes.Buffer
				if err := c.Metrics.WriteProm(&prom); err != nil {
					t.Fatal(err)
				}
				return string(j), prom.String()
			}
			vmJSON, vmProm := campaign(backend.VM)
			twJSON, twProm := campaign(backend.Treewalk)
			if vmJSON != twJSON {
				t.Errorf("campaign reports differ\nvm:       %s\ntreewalk: %s", vmJSON, twJSON)
			}
			if vmProm != twProm {
				t.Errorf("campaign metrics differ\nvm:\n%s\ntreewalk:\n%s", vmProm, twProm)
			}
		})
	}
}
