package positdebug_test

// A golden for the shadow runtime's metrics feed. The served configuration
// runs over the detection suite and every kernel (DefaultN/4, as f64 and
// refactored to ⟨32,2⟩ posits); each kernel also runs once into a
// step-budget trip and once under a shadow-memory budget that forces
// precision-degraded retries, and one program traps. Every run feeds one
// registry, whose Prometheus dump is compared byte for byte against
// testdata/metrics_golden.prom on both backends, and with the runs spread
// over eight goroutines.
//
// -update rewrites the golden from the current Program.Exec:
//
//	go test . -run TestMetricsGolden -update

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/interp"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// metricsRun is one Exec of the metrics golden: a program, its options,
// and the disruption ("trip", "degrade" or "trap") the run is meant to
// end in.
type metricsRun struct {
	name    string
	prog    *positdebug.Program
	opts    []positdebug.Option
	disrupt string
}

// servedShadowConfig is what pdserve runs for a shadow request.
func servedShadowConfig() shadow.Config {
	cfg := shadow.ConfigFor(oracle.BigFP, 256)
	cfg.Tracing = false
	cfg.MaxReports = 1
	return cfg
}

// degradeBudget trips every kernel's first attempt at 256 bits: each spans
// at least two shadow pages (~1.44 MB at 256 bits, ~0.92 MB at 128).
const degradeBudget = 1_200_000

// divTrapSrc dirties shadow memory and temporaries, then traps on an
// integer division by zero. The division carries no shadow event, so both
// backends count the same steps up to the trap.
const divTrapSrc = `
var g: [256]f64;

func main(): f64 {
	var s: f64 = 0.0;
	var z: i64 = 256;
	for (var i: i64 = 0; i < 256; i += 1) {
		g[i] = f64(i) * 1.5;
		s = s + g[i] * 0.25;
		z = z - 1;
	}
	return s + f64(256 / z);
}
`

// metricsRuns compiles the suite and kernel families of the Exec goldens
// and divTrapSrc, and lists the runs of the metrics golden in a fixed
// order.
func metricsRuns(t testing.TB) []metricsRun {
	t.Helper()
	served := []positdebug.Option{positdebug.WithShadow(servedShadowConfig())}
	budget := servedShadowConfig()
	budget.MaxShadowBytes = degradeBudget
	var runs []metricsRun
	for _, gp := range goldenPrograms(t) {
		if gp.family == "adversarial" {
			continue
		}
		prog, err := positdebug.Compile(gp.src)
		if err != nil {
			t.Fatalf("compile %s: %v", gp.name, err)
		}
		runs = append(runs, metricsRun{gp.name, prog, served, ""})
		if gp.family != "kernels" {
			continue
		}
		trip := append(served[:1:1], positdebug.WithLimits(interp.Limits{MaxSteps: 5000}))
		runs = append(runs,
			metricsRun{gp.name, prog, trip, "trip"},
			metricsRun{gp.name, prog, []positdebug.Option{positdebug.WithShadow(budget)}, "degrade"})
	}
	trap, err := positdebug.Compile(divTrapSrc)
	if err != nil {
		t.Fatal(err)
	}
	return append(runs, metricsRun{"trap", trap, served, "trap"})
}

// exec runs r into reg on backend k and checks that a disrupted run ended
// the way it is meant to.
func (r metricsRun) exec(t testing.TB, reg *obs.Registry, k backend.Kind) {
	res, err := r.prog.Exec("main", append(r.opts, positdebug.WithMetrics(reg), positdebug.WithBackend(k))...)
	var re *interp.ResourceExhausted
	tripped := errors.As(err, &re)
	switch r.disrupt {
	case "trip":
		if !tripped || re.Resource != interp.ResSteps {
			t.Errorf("%s: want a step-budget trip, got %v", r.name, err)
		}
	case "degrade":
		if !(err == nil && res.Degraded) && !(tripped && re.Resource == interp.ResShadowMemory) {
			t.Errorf("%s: want a degraded retry, got err=%v", r.name, err)
		}
	case "trap":
		var trap *interp.Trap
		if !errors.As(err, &trap) {
			t.Errorf("%s: want a trap, got %v", r.name, err)
		}
	}
}

var metricsGoldenPath = filepath.Join("testdata", "metrics_golden.prom")

// checkMetricsGolden compares a dump with the golden.
func checkMetricsGolden(t *testing.T, what, got string) {
	t.Helper()
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", metricsGoldenPath, err)
	}
	if got != string(want) {
		t.Errorf("%s metrics dump drifted from %s\n--- got ---\n%s", what, metricsGoldenPath, got)
	}
}

// TestMetricsGolden runs the metrics golden on each backend into a fresh
// registry and compares (or, with -update, rewrites) the dump.
func TestMetricsGolden(t *testing.T) {
	runs := metricsRuns(t)
	for _, k := range []backend.Kind{backend.VM, backend.Treewalk} {
		reg := obs.NewRegistry()
		for _, r := range runs {
			r.exec(t, reg, k)
		}
		got := reg.String()
		if *updateGolden && k == backend.VM {
			if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkMetricsGolden(t, k.String(), got)
	}
}

// TestMetricsFoldConcurrent runs the metrics golden's runs, shuffled, from
// eight goroutines into one shared registry. Programs share instruction
// ids, so the goroutines fold into the same histograms; the dump must
// still equal the golden.
func TestMetricsFoldConcurrent(t *testing.T) {
	runs := metricsRuns(t)
	order := rand.New(rand.NewSource(20)).Perm(len(runs))
	reg := obs.NewRegistry()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				runs[order[i]].exec(t, reg, backend.VM)
			}
		}()
	}
	wg.Wait()
	checkMetricsGolden(t, "8-goroutine", reg.String())
}
