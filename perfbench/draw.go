package main

import (
	"fmt"
	"math"
	"math/rand"

	pd "positdebug"
	"positdebug/internal/faultinject"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// Every draw below is a pure function of the seed. Draws fix the
// composition of a pass and let the seed choose the order: runs with
// different seeds then do the same work, so their figures compare run to
// run, while caches and heap growth still see a different sequence per
// seed.

// program is one generated input: a PCL source plus what the checks need
// to know about it.
type program struct {
	Name   string
	FPSrc  string // FP source before refactoring; empty for native posit programs
	Src    string // the source the system under test receives
	Expect []shadow.Kind
}

// kernelSpec names one program of the kernels workload.
type kernelSpec struct {
	Kernel string
	Arch   string // "posit" or "f64"
	N      int
}

func (k kernelSpec) name() string { return fmt.Sprintf("%s-%d/%s", k.Kernel, k.N, k.Arch) }

func allKernels() []workloads.Kernel {
	return append(workloads.PolyBench(), workloads.SpecLike()...)
}

// drawKernels is the kernels workload's pass: every PolyBench kernel at its
// DefaultN, in ⟨32,2⟩ posit and in f64, in seeded order. The SPEC-like
// kernels are left out: at DefaultN each holds tens of megabytes of shadow
// state, and their CPU times swung with the shared host's memory traffic
// (the p90 spread by a fifth over ten runs). Serve runs them at a quarter
// of DefaultN.
func drawKernels(seed int64) []kernelSpec {
	var specs []kernelSpec
	for _, k := range workloads.PolyBench() {
		for _, arch := range []string{"posit", "f64"} {
			specs = append(specs, kernelSpec{Kernel: k.Name, Arch: arch, N: k.DefaultN})
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// kernelProgram generates a kernel's source, refactored to posit for the
// posit arch exactly as the paper's evaluation does.
func kernelProgram(k kernelSpec) (program, error) {
	kern, ok := workloads.KernelByName(k.Kernel)
	if !ok {
		return program{}, fmt.Errorf("no kernel %q", k.Kernel)
	}
	fp := kern.Source(k.N)
	p := program{Name: k.name(), FPSrc: fp, Src: fp}
	if k.Arch == "posit" {
		src, err := pd.RefactorToPosit(fp)
		if err != nil {
			return program{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		p.Src = src
	}
	return p, nil
}

// excludedSuite lists detection-suite programs left out of the serve
// catalog: served runs use one report and no tracing, and with that
// configuration p_dot_mixed reports none of its expected kinds.
var excludedSuite = map[string]bool{"p_dot_mixed": true}

// catalogEntry is one program the serve workload can request: a
// detection-suite program, or a kernel at a quarter of its DefaultN.
type catalogEntry struct {
	Suite  string // suite program name, or "" for a kernel
	Kernel kernelSpec
}

func (c catalogEntry) name() string {
	if c.Suite != "" {
		return "suite/" + c.Suite
	}
	return c.Kernel.name()
}

// serveCatalog is the serve workload's catalog in popularity order. The
// order is a fixed shuffle, not the run's seed, so every seed asks for the
// same programs equally often. It holds more entries than the server's
// 64-entry compile cache, so the unpopular tail misses.
func serveCatalog() []catalogEntry {
	var cat []catalogEntry
	for _, p := range workloads.Suite() {
		if !excludedSuite[p.Name] {
			cat = append(cat, catalogEntry{Suite: p.Name})
		}
	}
	for _, k := range allKernels() {
		n := k.DefaultN / 4
		if n < 4 {
			n = 4
		}
		for _, arch := range []string{"posit", "f64"} {
			cat = append(cat, catalogEntry{Kernel: kernelSpec{Kernel: k.Name, Arch: arch, N: n}})
		}
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(cat), func(i, j int) { cat[i], cat[j] = cat[j], cat[i] })
	return cat
}

// catalogProgram generates a catalog entry's source. Suite programs written
// in FP are refactored to posit, as the detection experiment does.
func catalogProgram(c catalogEntry) (program, error) {
	if c.Suite == "" {
		return kernelProgram(c.Kernel)
	}
	for _, p := range workloads.Suite() {
		if p.Name != c.Suite {
			continue
		}
		prog := program{Name: c.name(), Src: p.Source, Expect: p.Expect}
		if p.FromFP {
			src, err := pd.RefactorToPosit(p.Source)
			if err != nil {
				return program{}, fmt.Errorf("%s: %w", prog.Name, err)
			}
			prog.FPSrc, prog.Src = p.Source, src
		}
		return prog, nil
	}
	return program{}, fmt.Errorf("no suite program %q", c.Suite)
}

// serveRequest is one request of the serve workload: a catalog index and
// whether it runs uninstrumented.
type serveRequest struct {
	Entry    int
	Baseline bool
}

// servePassTarget is the approximate number of requests in one serve pass.
const servePassTarget = 500

// drawRequests returns pass number pass of the serve workload. Entry r of
// the catalog is requested in proportion to 1/(r+1), at least once per
// pass; every tenth request of the unshuffled pass is a baseline run. The
// seed and pass number choose the order.
func drawRequests(seed int64, pass, catalogLen int) []serveRequest {
	h := 0.0
	for r := 0; r < catalogLen; r++ {
		h += 1 / float64(r+1)
	}
	var reqs []serveRequest
	for r := 0; r < catalogLen; r++ {
		n := int(math.Round(servePassTarget / float64(r+1) / h))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			reqs = append(reqs, serveRequest{Entry: r, Baseline: len(reqs)%10 == 9})
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// campaignKernels are the campaign workload's kernels: the PolyBench set
// without cholesky, whose campaigns take several times longer than the
// rest and would dominate every pass.
func campaignKernels() []string {
	var names []string
	for _, k := range workloads.PolyBench() {
		if k.Name != "cholesky" {
			names = append(names, "polybench/"+k.Name)
		}
	}
	return names
}

// campaignRuns is the number of fault-injected runs per architecture of
// one campaign: one fabric shard per architecture at the default shard
// size.
const campaignRuns = 16

// drawCampaigns returns the campaign workload's pass: one single-fault
// campaign per kernel on both architectures, in seeded order. Each
// kernel's fault seed is fixed: it decides which runs crash early and
// which run to the end, and drawing it from the run's seed moved
// throughput by a fifth from seed to seed.
func drawCampaigns(seed int64) []faultinject.CampaignConfig {
	var cfgs []faultinject.CampaignConfig
	for i, w := range campaignKernels() {
		cfgs = append(cfgs, faultinject.CampaignConfig{
			Workload: w, Arch: "both", Runs: campaignRuns, Seed: int64(i + 1),
		})
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}
