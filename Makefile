GO ?= go

.PHONY: all build vet test race fuzz fuzz-frontend fuzz-bytecode campaign-smoke bench bench-json bench-profile bench-fabric bench-perf trace-smoke profile-smoke fabric-smoke chaos-smoke fleet-obs-smoke vm-smoke oracle-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/interp/ ./internal/shadow/ ./internal/parallel/ ./internal/server/
	$(GO) test -race -count=1 -cpu=1,4 -run 'TestExecGoldenReplay|TestExecRecycledImageAdversarial|TestExecConcurrentFreshProgram|TestMetricsFoldConcurrent' .
	$(GO) test -race -count=1 -cpu=1,4 -run ParallelDeterminism ./internal/faultinject/ ./internal/harness/
	$(GO) test -race -count=1 -cpu=1,4 ./internal/fabric/

# Regenerate every checked-in benchmark report. Each records the commit it
# measured, whether tracked files differed from that commit ("dirty"), and
# the command that produced it.
bench: bench-json bench-profile bench-fabric bench-perf

# Regenerate the checked-in benchmark report (BENCH_shadow.json),
# including the per-oracle speed/precision frontier rows (@dd/@residue).
# CI runs the same tool with -short as a smoke check and uploads the
# artifact.
bench-json: build
	$(GO) run ./cmd/pdbench -out BENCH_shadow.json

# Cross-oracle differential suite under the race detector at -cpu=1,4:
# the dd oracle must agree with bigfp-256 on every exhaustive ⟨8,0⟩ op
# pair and on the full §5.1 detection suite's verdicts (both backends),
# the cheap oracles must run allocation-free warm, and the server's
# watchdog must walk the bigfp → dd → dd-sampled ladder under memory
# pressure. CI runs this as the oracle-smoke job.
oracle-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 -run 'TestOracleDiff' .
	$(GO) test -race -count=1 -cpu=1,4 ./internal/shadow/oracle/
	$(GO) test -race -count=1 -cpu=1,4 -run 'TestWarmRuntimeAllocsOracles' ./internal/shadow/
	$(GO) test -race -count=1 -cpu=1,4 -run 'TestDegradation' ./internal/server/
	@echo "oracle-smoke: dd/residue agree with bigfp within contract ✓"

# Regenerate the checked-in profiler-overhead report (BENCH_profile.json):
# full-shadow vs sampled-shadow cost and checked-op fraction on gemm.
bench-profile: build
	$(GO) run ./cmd/pdbench -profile -out BENCH_profile.json

# Regenerate the checked-in fabric report (BENCH_fabric.json): 1- vs
# 3-worker distributed campaign throughput, the fleet-tracing overhead
# row, and merged-report latency.
bench-fabric: build
	$(GO) run ./cmd/pdbench -fabric -out BENCH_fabric.json

# Regenerate the checked-in end-to-end report (BENCH_perf.json): perfbench
# serve and campaign, the workloads BENCHMARK.json declares, at seeds 1-3
# for 40 s each, in calibrated CPU time (perfbench/README.md). Each result
# carries the provenance perfbench records (commit, Go version,
# GOMAXPROCS, seed, command, with the binary's path made relative to the
# checkout); the file adds whether tracked files other than the BENCH
# reports differed from that commit.
PERF_RUNS = serve-seed1 serve-seed2 serve-seed3 campaign-seed1 campaign-seed2 campaign-seed3
bench-perf:
	for r in $(PERF_RUNS); do \
		python3 perfbench/run.py --workload $${r%-seed*} --seed $${r#*-seed} --seconds 40 --trace 0 > /dev/null || exit 1; \
	done
	{ printf '{"commit": "%s", "dirty": %s, "command": ["make", "bench-perf"], "results": [' \
		"`git rev-parse HEAD`" \
		"`git status --porcelain --untracked-files=no -- ':/' ':(top,exclude)BENCH_*.json' | grep -q . && echo true || echo false`"; \
	  sep=; for r in $(PERF_RUNS); do printf '%s' "$$sep"; sed 's|$(CURDIR)/||' .bench_build/results/$$r-trace0.json; sep=,; done; \
	  echo "]}"; } | python3 -m json.tool --indent 2 > BENCH_perf.json

fuzz:
	$(GO) test . -run FuzzInjector -fuzz FuzzInjector -fuzztime 30s

# The service compiles untrusted request bodies: the parser and type
# checker must error, never panic, on arbitrary input. CI runs this as
# the fuzz-smoke job.
fuzz-frontend:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 30s ./internal/lang/
	$(GO) test -run xxx -fuzz FuzzTypeCheck -fuzztime 30s ./internal/lang/

# Bytecode pipeline fuzzing over random programs: the compiler must never
# emit a chunk the verifier rejects nor one the VM executes differently
# from the tree-walker.
fuzz-bytecode:
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 30s .

# Two-backend differential suite under the race detector at -cpu=1,4:
# detection runs, polybench kernels, step limits, a fault campaign, a
# profile, sampled injection, served runs with metrics, and
# Herbgrind runs must all be byte-identical between the tree-walking
# interpreter and the bytecode VM, sequential and 4-worker alike. A pd run
# of the Figure 2 program with a metrics dump on the default backend (the
# VM) and on the tree-walker is then diffed end to end, report and dump
# alike. CI runs this as the vm-smoke job.
VMDIR ?= /tmp/pd-vm-smoke
vm-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 -run TestBackendDiff .
	mkdir -p $(VMDIR)
	$(GO) run ./cmd/pd -backend=treewalk -metrics $(VMDIR)/treewalk.prom testdata/rootcount.pcl > $(VMDIR)/treewalk.txt
	$(GO) run ./cmd/pd -metrics $(VMDIR)/default.prom testdata/rootcount.pcl > $(VMDIR)/default.txt
	diff $(VMDIR)/treewalk.txt $(VMDIR)/default.txt
	diff $(VMDIR)/treewalk.prom $(VMDIR)/default.prom
	@echo "vm-smoke: default-backend report and metrics byte-identical to tree-walker ✓"

# End-to-end observability check: run Figure 2 under PositDebug with an
# event trace, DAG export and metrics dump, plus a traced mini campaign,
# then validate the JSONL schema and DOT syntax with obscheck. CI runs
# this as the trace-smoke job and uploads the artifacts.
TRACEDIR ?= /tmp/pd-trace-smoke
trace-smoke: build
	mkdir -p $(TRACEDIR)
	$(GO) run ./cmd/pd -trace $(TRACEDIR)/trace.jsonl -dot $(TRACEDIR)/dag.dot -metrics $(TRACEDIR)/metrics.prom testdata/rootcount.pcl
	$(GO) run ./cmd/pdfault -workload polybench/gemm -seed 7 -runs 20 -trace $(TRACEDIR)/campaign.jsonl > /dev/null
	$(GO) run ./cmd/obscheck -jsonl $(TRACEDIR)/trace.jsonl,$(TRACEDIR)/campaign.jsonl -dot $(TRACEDIR)/dag.dot
	grep -q '^pd_detections_total' $(TRACEDIR)/metrics.prom
	@echo "trace-smoke: schema-valid trace, parsable DAG, metrics present ✓"

# End-to-end profiler check: the parallel-determinism test under the race
# detector at -cpu=1,4 (profiles and Chrome traces must be byte-identical
# sequential vs 4 workers), then a real pdprof record whose profile is
# diffed against a -workers 4 re-record and whose Chrome trace obscheck
# validates for Perfetto-loadability. CI runs this as the profile-smoke job.
PROFDIR ?= /tmp/pd-profile-smoke
profile-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 -run TestProfileParallelDeterminism ./internal/harness/
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/pdprof record -kernel gemm -n 8 -runs 8 -sample 16 -trace $(PROFDIR)/trace.json -o $(PROFDIR)/seq.pdprof
	$(GO) run ./cmd/pdprof record -kernel gemm -n 8 -runs 8 -sample 16 -workers 4 -o $(PROFDIR)/par.pdprof
	diff $(PROFDIR)/seq.pdprof $(PROFDIR)/par.pdprof
	$(GO) run ./cmd/obscheck -chrome $(PROFDIR)/trace.json
	$(GO) run ./cmd/pdprof top -n 5 $(PROFDIR)/seq.pdprof
	@echo "profile-smoke: deterministic profile, valid Chrome trace ✓"

# A ~15-second mini resilience campaign: posit vs float under single bit
# flips, verified deterministic by running it twice and diffing the JSON.
# Then two sweeps run on the reference tree-walker with -schedules and are
# diffed against the default VM, fault schedules included: the default
# single-fault sweep, and a multi-fault rate sweep over loads, stores and
# call returns. CI runs this in the test job.
CAMPAIGNDIR ?= /tmp/pd-campaign-smoke
CAMPAIGN = $(CAMPAIGNDIR)/pdfault -workload polybench/gemm -seed 42 -runs 200 -arch both
MULTIFLIP = -model multiflip -rate 0.002 -ops load,store,call
campaign-smoke: build
	mkdir -p $(CAMPAIGNDIR)
	$(GO) build -o $(CAMPAIGNDIR)/pdfault ./cmd/pdfault
	$(CAMPAIGN) -model bitflip
	$(CAMPAIGN) -model bitflip -json > $(CAMPAIGNDIR)/run-1.json
	$(CAMPAIGN) -model bitflip -json > $(CAMPAIGNDIR)/run-2.json
	diff $(CAMPAIGNDIR)/run-1.json $(CAMPAIGNDIR)/run-2.json
	$(CAMPAIGN) -json -schedules > $(CAMPAIGNDIR)/single-vm.json
	$(CAMPAIGN) -json -schedules -backend treewalk > $(CAMPAIGNDIR)/single-treewalk.json
	diff $(CAMPAIGNDIR)/single-vm.json $(CAMPAIGNDIR)/single-treewalk.json
	$(CAMPAIGN) $(MULTIFLIP) -json -schedules > $(CAMPAIGNDIR)/multiflip-vm.json
	$(CAMPAIGN) $(MULTIFLIP) -json -schedules -backend treewalk > $(CAMPAIGNDIR)/multiflip-treewalk.json
	diff $(CAMPAIGNDIR)/multiflip-vm.json $(CAMPAIGNDIR)/multiflip-treewalk.json
	@echo "campaign-smoke: deterministic, and byte-identical to the tree-walker ✓"

# Distributed-fabric end-to-end check: the worker-loss and coordinator-
# resume tests under the race detector at -cpu=1,4 (a 3-worker campaign
# with one worker destroyed mid-flight, and a killed/restarted
# coordinator, must both produce bytes identical to a sequential run),
# then a real 2-process pdserve fleet driven by pdcoord, diffed against
# pdfault on the same flags. CI runs this as the fabric-smoke job.
FABDIR ?= /tmp/pd-fabric-smoke
fabric-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 -run 'TestFabricWorkerLossByteIdentical|TestFabricCoordinatorResume' ./internal/fabric/
	mkdir -p $(FABDIR)
	$(GO) build -o $(FABDIR)/pdserve ./cmd/pdserve
	$(FABDIR)/pdserve -addr 127.0.0.1:8711 & echo $$! > $(FABDIR)/w1.pid
	$(FABDIR)/pdserve -addr 127.0.0.1:8712 & echo $$! > $(FABDIR)/w2.pid
	sleep 1
	$(GO) run ./cmd/pdcoord -workers http://127.0.0.1:8711,http://127.0.0.1:8712 \
		-workload polybench/gemm -seed 42 -runs 60 -arch both -shard-size 8 -json > $(FABDIR)/coord.json; \
		status=$$?; kill `cat $(FABDIR)/w1.pid` `cat $(FABDIR)/w2.pid` 2>/dev/null; exit $$status
	$(GO) run ./cmd/pdfault -workload polybench/gemm -seed 42 -runs 60 -arch both -json > $(FABDIR)/seq.json
	diff $(FABDIR)/coord.json $(FABDIR)/seq.json
	@echo "fabric-smoke: distributed report byte-identical to sequential ✓"

# Self-healing fleet check. First the chaos suite under the race detector
# at -cpu=1,4: real campaigns through the fault-injecting proxy (latency,
# error storms, connection resets, truncated bodies, blackholes) with one
# worker killed and another joining mid-run, every merged report required
# byte-identical to sequential pdfault. Then a real 2-process fleet
# assembled by discovery alone: two pdserve workers self-register with a
# pdcoord registration endpoint (no -workers flag anywhere), the campaign
# runs, and the result is diffed against pdfault. Workers start before
# the coordinator on purpose — the registration loop must survive beats
# into the void until the endpoint appears. CI runs this as the
# chaos-smoke job.
CHAOSDIR ?= /tmp/pd-chaos-smoke
chaos-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 ./internal/chaos/
	mkdir -p $(CHAOSDIR)
	$(GO) build -o $(CHAOSDIR)/pdserve ./cmd/pdserve
	$(CHAOSDIR)/pdserve -addr 127.0.0.1:8713 -coordinator http://127.0.0.1:8731 -heartbeat 250ms & echo $$! > $(CHAOSDIR)/w1.pid
	$(CHAOSDIR)/pdserve -addr 127.0.0.1:8714 -coordinator http://127.0.0.1:8731 -heartbeat 250ms & echo $$! > $(CHAOSDIR)/w2.pid
	$(GO) run ./cmd/pdcoord -listen 127.0.0.1:8731 -min-workers 2 \
		-workload polybench/gemm -seed 42 -runs 60 -arch both -shard-size 8 -json > $(CHAOSDIR)/coord.json; \
		status=$$?; kill `cat $(CHAOSDIR)/w1.pid` `cat $(CHAOSDIR)/w2.pid` 2>/dev/null; exit $$status
	$(GO) run ./cmd/pdfault -workload polybench/gemm -seed 42 -runs 60 -arch both -json > $(CHAOSDIR)/seq.json
	diff $(CHAOSDIR)/coord.json $(CHAOSDIR)/seq.json
	@echo "chaos-smoke: self-registered fleet byte-identical to sequential ✓"

# Fleet observability end-to-end. First the in-process acceptance tests
# under the race detector: the chaos fleet-trace-through-storm test at
# -cpu=1,4 plus the fabric trace/status/SSE suite. Then a real 2-process
# fleet: two pdserve workers (flight recorders on by default) self-
# register with pdcoord -listen, the campaign runs with -trace, GET
# /fleet/status is polled over HTTP while shards are in flight, and the
# tracing overhead row is gated by pdbench -fabric -strict (<5%). The
# merged multi-process Chrome trace must validate via obscheck, span the
# coordinator and worker request spans, and the report must still diff
# clean against pdfault. CI runs this as the fleet-obs-smoke job.
FLEETDIR ?= /tmp/pd-fleet-obs-smoke
fleet-obs-smoke: build
	$(GO) test -race -count=1 -cpu=1,4 -run TestChaosFleetTraceThroughStorm ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestFleetTraceEndToEnd|TestFleetStatusShape|TestFleetEventsSSE' ./internal/fabric/
	mkdir -p $(FLEETDIR)
	$(GO) build -o $(FLEETDIR)/pdserve ./cmd/pdserve
	$(FLEETDIR)/pdserve -addr 127.0.0.1:8715 -coordinator http://127.0.0.1:8732 -heartbeat 250ms & echo $$! > $(FLEETDIR)/w1.pid
	$(FLEETDIR)/pdserve -addr 127.0.0.1:8716 -coordinator http://127.0.0.1:8732 -heartbeat 250ms & echo $$! > $(FLEETDIR)/w2.pid
	( for i in `seq 1 100`; do \
		if curl -sf http://127.0.0.1:8732/fleet/status > $(FLEETDIR)/status.json.tmp 2>/dev/null \
			|| wget -qO $(FLEETDIR)/status.json.tmp http://127.0.0.1:8732/fleet/status 2>/dev/null; then \
			mv $(FLEETDIR)/status.json.tmp $(FLEETDIR)/status.json; fi; \
		sleep 0.2; done ) & echo $$! > $(FLEETDIR)/poll.pid
	$(GO) run ./cmd/pdcoord -listen 127.0.0.1:8732 -min-workers 2 \
		-workload polybench/gemm -seed 42 -runs 60 -arch both -shard-size 8 \
		-trace $(FLEETDIR)/fleet-trace.json -json > $(FLEETDIR)/coord.json; \
		status=$$?; kill `cat $(FLEETDIR)/w1.pid` `cat $(FLEETDIR)/w2.pid` `cat $(FLEETDIR)/poll.pid` 2>/dev/null; exit $$status
	$(GO) run ./cmd/pdfault -workload polybench/gemm -seed 42 -runs 60 -arch both -json > $(FLEETDIR)/seq.json
	diff $(FLEETDIR)/coord.json $(FLEETDIR)/seq.json
	$(GO) run ./cmd/obscheck -chrome $(FLEETDIR)/fleet-trace.json
	grep -q '"request"' $(FLEETDIR)/fleet-trace.json
	grep -q '"pdcoord"' $(FLEETDIR)/fleet-trace.json
	test -s $(FLEETDIR)/status.json
	grep -q '"total_shards"' $(FLEETDIR)/status.json
	grep -q '"workers"' $(FLEETDIR)/status.json
	$(GO) run ./cmd/pdbench -fabric -strict -out $(FLEETDIR)/BENCH_fabric.json
	@echo "fleet-obs-smoke: merged fleet trace valid, live status served, tracing overhead inside budget ✓"
