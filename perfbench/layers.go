package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	pd "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/bytecode"
	"positdebug/internal/codegen"
	"positdebug/internal/faultinject"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/lang"
	"positdebug/internal/obs"
	"positdebug/internal/refactor"
	"positdebug/internal/server"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// The traced run times each layer from outside by calling its public
// functions on the workload's own inputs. README.md lists which end-to-end
// metric each row should move, and on which workload.

const (
	probePrograms = 4  // programs of the workload's draw the probes run on
	stageReps     = 10 // repetitions of each compile stage
	runReps       = 3  // repetitions of each whole-program run
	muladdIters   = 100_000
)

// meanOf averages per-program figures.
func meanOf(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// timeReps runs fn reps times and returns the median duration.
func timeReps(reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers measures the per-layer rows it can take from progs and ccfg
// alone into out: compile stages, machine and shadow runs, oracle
// arithmetic, the server path, and the campaign layer without HTTP.
func probeLayers(progs []program, ccfg faultinject.CampaignConfig, out map[string]metric) error {
	for _, probe := range []func([]program, map[string]metric) error{probeCompile, probeRuns, probeServer} {
		if err := probe(progs, out); err != nil {
			return err
		}
	}
	probeOracles(out)
	return probeCampaign(ccfg, out)
}

// probeCompile times each frontend stage separately: refactor, parse,
// check, codegen (with IR verification), instrument and bytecode compile.
func probeCompile(progs []program, out map[string]metric) error {
	stages := map[string][]float64{}
	for _, p := range progs {
		fpSrc := p.FPSrc
		if fpSrc == "" {
			fpSrc = p.Src
		}
		per := map[string][]float64{}
		for i := 0; i < stageReps; i++ {
			t0 := time.Now()
			if _, err := refactor.Source(fpSrc, refactor.Options{}); err != nil {
				return fmt.Errorf("%s: refactor: %w", p.Name, err)
			}
			t1 := time.Now()
			ast, err := lang.Parse(p.Src)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			t2 := time.Now()
			chk, err := lang.Check(ast)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			t3 := time.Now()
			mod, err := codegen.Compile(chk)
			if err == nil {
				err = mod.Verify()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			t4 := time.Now()
			inst := instrument.Instrument(mod, instrument.Options{})
			t5 := time.Now()
			if _, err := bytecode.Compile(inst, bytecode.Options{Fuse: true}); err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			t6 := time.Now()
			per["refactor_us"] = append(per["refactor_us"], us(t1.Sub(t0)))
			per["lang.parse_us"] = append(per["lang.parse_us"], us(t2.Sub(t1)))
			per["lang.check_us"] = append(per["lang.check_us"], us(t3.Sub(t2)))
			per["codegen_us"] = append(per["codegen_us"], us(t4.Sub(t3)))
			per["instrument_us"] = append(per["instrument_us"], us(t5.Sub(t4)))
			per["bytecode.compile_us"] = append(per["bytecode.compile_us"], us(t6.Sub(t5)))
		}
		for k, v := range per {
			stages[k] = append(stages[k], median(v))
		}
	}
	for k, v := range stages {
		out[k] = metric{meanOf(v), "us"}
	}
	return nil
}

// runVariant is one way of running an instrumented or plain module.
type runVariant struct {
	metric  string
	plain   bool // run the uninstrumented module
	hooks   bool // attach interp.NopHooks instead of a shadow runtime
	oracle  oracle.Kind
	backend backend.Kind
}

// Rows whose differences separate instrumentation dispatch (hooks −
// baseline), metadata bookkeeping and oracle arithmetic (default − hooks,
// and across oracles), and backend (default − vm).
var runVariants = []runVariant{
	{metric: "interp.baseline_ns_per_step", plain: true},
	{metric: "interp.hooks_ns_per_step", hooks: true},
	{metric: "shadow.run_ns_per_step", oracle: oracle.BigFP},
	{metric: "shadow.run_ns_per_step.vm", oracle: oracle.BigFP, backend: backend.VM},
	{metric: "shadow.run_ns_per_step.dd", oracle: oracle.DD},
	{metric: "shadow.run_ns_per_step.residue", oracle: oracle.Residue},
}

// probeRuns times fresh machines the way Exec builds them, per variant,
// plus shadow set-up, the report, the exact step count and allocation.
func probeRuns(progs []program, out map[string]metric) error {
	ns := map[string]float64{}
	steps := map[string]int64{}
	var setupUS, reportUS, allocKBs []float64
	var shadowSteps int64
	for _, p := range progs {
		prog, err := pd.Compile(p.Src)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		inst := prog.Instrumented()
		d, err := timeReps(stageReps, func() error {
			_, err := shadow.New(inst, shadow.DefaultConfig())
			interp.New(inst)
			return err
		})
		if err != nil {
			return err
		}
		setupUS = append(setupUS, us(d))
		for _, v := range runVariants {
			var n int64
			var rt *shadow.Runtime
			d, err := timeReps(runReps, func() error {
				m := interp.New(inst)
				if v.plain {
					m = interp.New(prog.Module)
				}
				m.Backend = v.backend
				switch {
				case v.hooks:
					m.Hooks = interp.NopHooks{}
				case !v.plain:
					var err error
					if rt, err = shadow.New(inst, shadow.ConfigFor(v.oracle, 0)); err != nil {
						return err
					}
					m.Hooks = rt
				}
				if _, err := m.Run("main"); err != nil {
					return fmt.Errorf("%s: %s: %w", p.Name, v.metric, err)
				}
				n = m.Steps()
				return nil
			})
			if err != nil {
				return err
			}
			ns[v.metric] += float64(d)
			steps[v.metric] += n
			if v.metric == "shadow.run_ns_per_step" {
				shadowSteps += n
				t0 := time.Now()
				rt.Summary()
				reportUS = append(reportUS, us(time.Since(t0)))
			}
		}
		var execErr error
		allocKBs = append(allocKBs, allocKB(func() { _, execErr = prog.Exec("main") }))
		if execErr != nil {
			return fmt.Errorf("%s: %w", p.Name, execErr)
		}
	}
	for _, v := range runVariants {
		out[v.metric] = metric{ns[v.metric] / float64(steps[v.metric]), "ns"}
	}
	out["shadow.setup_us"] = metric{meanOf(setupUS), "us"}
	out["shadow.report_us"] = metric{meanOf(reportUS), "us"}
	out["interp.steps"] = metric{float64(shadowSteps), "count"}
	out["shadow.alloc_kb_per_program"] = metric{meanOf(allocKBs), "KiB"}
	return nil
}

// probeOracles times one multiply and one add on fixed operands, the
// shadow arithmetic behind every posit or FP multiply-accumulate.
func probeOracles(out map[string]metric) {
	for _, kind := range oracle.Kinds() {
		o, err := oracle.New(kind, 0)
		if err != nil {
			panic(err) // every listed kind constructs
		}
		var a, b, c, t, z oracle.Value
		o.SetFloat64(&a, 1.2345678901234567)
		o.SetFloat64(&b, 0.9876543210987654)
		o.SetFloat64(&c, 3.141592653589793)
		d, _ := timeReps(5, func() error {
			for i := 0; i < muladdIters; i++ {
				o.Mul(&t, &a, &b)
				o.Add(&z, &t, &c)
			}
			return nil
		})
		out["oracle.muladd_ns."+string(kind)] = metric{float64(d) / muladdIters, "ns"}
	}
}

// servedShadowConfig is the shadow configuration the server runs a
// request under at zero memory pressure (server.execRun).
func servedShadowConfig(reg *obs.Registry) shadow.Config {
	cfg := shadow.ConfigFor(oracle.BigFP, 256)
	cfg.Tracing = false
	cfg.MaxReports = 1
	cfg.Metrics = reg
	return cfg
}

// servedOptions are the Exec options the server passes for a shadow
// request with default limits.
func servedOptions(reg *obs.Registry) []pd.Option {
	return []pd.Option{
		pd.WithContext(context.Background()),
		pd.WithLimits(interp.Limits{Timeout: 2 * time.Second, MaxSteps: 50_000_000}),
		pd.WithArgs(),
		pd.WithBackend(server.Config{}.Backend),
		pd.WithShadow(servedShadowConfig(reg)),
	}
}

// probeServer drives Handler().ServeHTTP with an in-memory recorder (one
// cache miss, then hits), and times the pieces of a request separately.
func probeServer(progs []program, out map[string]metric) error {
	srv := server.New(server.Config{})
	h := srv.Handler()
	serve := func(body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return rec, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	var handlerMS, compileMS, execMS, execNoMS, encodeUS, allocKBs []float64
	var queueMax int64
	shed := 0
	for _, p := range progs {
		body, err := json.Marshal(server.RunRequest{Source: p.Src})
		if err != nil {
			return err
		}
		rec, err := serve(body) // cache miss
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		d, err := timeReps(runReps, func() error {
			r, err := serve(body)
			if r.Code == http.StatusTooManyRequests {
				shed++
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		handlerMS = append(handlerMS, ms(d))
		var serveErr error
		allocKBs = append(allocKBs, allocKB(func() { _, serveErr = serve(body) }))
		if serveErr != nil {
			return serveErr
		}
		if q := srv.Stats().QueueDepth; q > queueMax {
			queueMax = q
		}

		var prog *pd.Program
		d, err = timeReps(runReps, func() error {
			var err error
			prog, err = pd.Compile(p.Src)
			if err != nil {
				return err
			}
			sum := sha256.Sum256([]byte(p.Src))
			prog.SetSourceName("src-" + hex.EncodeToString(sum[:6]))
			prog.Instrumented()
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		compileMS = append(compileMS, ms(d))
		reg := obs.NewRegistry()
		for _, row := range []struct {
			reg *obs.Registry
			out *[]float64
		}{{reg, &execMS}, {nil, &execNoMS}} {
			d, err := timeReps(runReps, func() error {
				_, err := prog.Exec("main", servedOptions(row.reg)...)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			*row.out = append(*row.out, ms(d))
		}

		var resp server.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		d, _ = timeReps(stageReps, func() error { return json.NewEncoder(io.Discard).Encode(resp) })
		encodeUS = append(encodeUS, us(d))
	}
	st := srv.Stats()
	out["server.handler_ms"] = metric{meanOf(handlerMS), "ms"}
	out["server.compile_ms"] = metric{meanOf(compileMS), "ms"}
	out["server.exec_ms"] = metric{meanOf(execMS), "ms"}
	out["server.exec_nometrics_ms"] = metric{meanOf(execNoMS), "ms"}
	out["server.encode_us"] = metric{meanOf(encodeUS), "us"}
	out["server.alloc_kb_per_request"] = metric{meanOf(allocKBs), "KiB"}
	out["server.cache_hit_ratio"] = metric{float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses), "ratio"}
	out["server.queue_depth_max"] = metric{float64(queueMax), "count"}
	out["server.shed"] = metric{float64(shed), "count"}
	return nil
}

// probeCampaign calls the campaign layer directly, with no HTTP: a golden
// probe shard, whole-architecture shards, and the merge.
func probeCampaign(ccfg faultinject.CampaignConfig, out map[string]metric) error {
	arches, err := ccfg.EffectiveArches()
	if err != nil {
		return err
	}
	runs := ccfg.EffectiveRuns()
	var goldenMS, shardMS []float64
	var shards []*faultinject.ShardResult
	for _, arch := range arches {
		req := faultinject.ShardRequest{Version: faultinject.ShardVersion, Config: ccfg.Wire(), Arch: arch}
		d, err := timeReps(runReps, func() error {
			_, err := faultinject.RunShard(context.Background(), req)
			return err
		})
		if err != nil {
			return err
		}
		goldenMS = append(goldenMS, ms(d))
		req.Hi = runs
		var res *faultinject.ShardResult
		d, err = timeReps(runReps, func() error {
			var err error
			res, err = faultinject.RunShard(context.Background(), req)
			return err
		})
		if err != nil {
			return err
		}
		shardMS = append(shardMS, ms(d))
		shards = append(shards, res)
	}
	d, err := timeReps(stageReps, func() error {
		_, err := faultinject.AssembleReport(ccfg, shards)
		return err
	})
	if err != nil {
		return err
	}
	out["faultinject.golden_ms"] = metric{meanOf(goldenMS), "ms"}
	out["faultinject.shard_ms"] = metric{meanOf(shardMS), "ms"}
	out["faultinject.run_us"] = metric{1000 * (meanOf(shardMS) - meanOf(goldenMS)) / float64(runs), "us"}
	out["faultinject.assemble_ms"] = metric{ms(d), "ms"}
	return nil
}
