package positdebug_test

// Program.Exec recycles run state between calls: memory images, shadow
// pages and the program's bytecode. These tests replay the Exec goldens
// (exec_golden_test.go) through that recycling — shuffled, concurrent,
// on both backends, with failing, degraded and fault-injected runs in
// between — and call Exec concurrently on a Program no call has warmed.
// `make race` runs them under the race detector at -cpu=1,4.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/faultinject"
	"positdebug/internal/interp"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// trapSrc dirties globals, a stack frame and shadow memory, then stores
// below the globals segment, which traps part-way through the run.
const trapSrc = `
var g: [256]f64;

func main(): f64 {
	var local: [32]f64;
	for (var i: i64 = 0; i < 256; i += 1) {
		g[i] = f64(i) * 1.5;
	}
	for (var i: i64 = 0; i < 32; i += 1) {
		local[i] = g[i] + 0.25;
	}
	g[-100000] = local[3];
	return g[7];
}
`

// spinSrc dirties memory until its context is cancelled.
const spinSrc = `
var g: [512]f64;

func main(): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < 1000000000000; i += 1) {
		g[i % 512] = g[(i + 1) % 512] + 1.0;
		s = s + g[i % 512];
	}
	return s;
}
`

// disruptions are the failing, degraded and faulty runs interleaved with
// the golden replay: a trap, a cancellation, a step-budget trip, a
// shadow-memory budget trip that retries at half precision, and a run
// with one injected fault.
type disruptions struct {
	trap, spin, gemm *positdebug.Program
	want             [5]string // renderings of the deterministic ones
}

func newDisruptions(t *testing.T) *disruptions {
	t.Helper()
	k, _ := workloads.KernelByName("gemm")
	d := &disruptions{}
	for _, c := range []struct {
		p   **positdebug.Program
		src string
	}{{&d.trap, trapSrc}, {&d.spin, spinSrc}, {&d.gemm, k.Source(8)}} {
		prog, err := positdebug.Compile(c.src)
		if err != nil {
			t.Fatal(err)
		}
		*c.p = prog
	}
	for i := range d.want {
		if i == 1 {
			continue // a cancellation's step count is not deterministic
		}
		d.want[i] = d.render(t, i, backend.Treewalk)
	}
	clean := renderExec(d.gemm.Exec("main", positdebug.WithBackend(backend.Treewalk)))
	if !strings.Contains(d.want[0], "memory access out of bounds") ||
		!strings.Contains(d.want[2], "resource exhausted") ||
		!strings.Contains(d.want[3], "degraded true") ||
		d.want[4] == clean {
		t.Fatalf("disruptions did not disrupt:\n%s", strings.Join(d.want[:], "\n"))
	}
	return d
}

// render runs disruption i on backend k and renders the outcome.
func (d *disruptions) render(t *testing.T, i int, k backend.Kind) string {
	be := positdebug.WithBackend(k)
	switch i {
	case 0:
		return renderExec(d.trap.Exec("main", be))
	case 1:
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		_, err := d.spin.Exec("main", be, positdebug.WithContext(ctx))
		var c *interp.Cancelled
		if !errors.As(err, &c) {
			t.Errorf("spin: want *interp.Cancelled, got %v", err)
		}
		return ""
	case 2:
		return renderExec(d.gemm.Exec("main", be, positdebug.WithLimits(interp.Limits{MaxSteps: 20000})))
	case 3:
		// gemm-8 spans two shadow pages: 256 bits need ~1.44 MB, so a
		// 1.2 MB budget trips and the retry completes at 128 bits.
		cfg := shadow.DefaultConfig()
		cfg.MaxShadowBytes = 1_200_000
		return renderExec(d.gemm.Exec("main", be, positdebug.WithShadow(cfg)))
	default:
		// One forced NaN at the first eligible event: the run's image and
		// shadow pages, corrupted value included, go back on the free
		// lists for the golden runs that follow.
		inj := faultinject.NewInjector(faultinject.Model{Kind: faultinject.StuckNaR, Rate: 1, MaxInjections: 1}, 1)
		return renderExec(d.gemm.Exec("main", be, positdebug.WithInjector(inj)))
	}
}

// run executes disruption i%5 and checks it against its first rendering.
func (d *disruptions) run(t *testing.T, i int, k backend.Kind) {
	i %= len(d.want)
	if got := d.render(t, i, k); got != d.want[i] {
		t.Errorf("disruption %d on %s drifted\n--- got ---\n%s--- want ---\n%s", i, k, got, d.want[i])
	}
}

// TestExecGoldenReplay replays every golden run in one shuffled order —
// programs, configurations and the adversarial pair interleaved — on one
// goroutine and on four, on both backends, with a disruption before every
// eighth run. Every run must render byte for byte as recorded.
func TestExecGoldenReplay(t *testing.T) {
	runs, families := goldenRuns(t)
	want := loadGoldens(t, runs, families)
	dis := newDisruptions(t)
	order := rand.New(rand.NewSource(16)).Perm(len(runs))
	for _, k := range []backend.Kind{backend.VM, backend.Treewalk} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", k, workers), func(t *testing.T) {
				got := make([]string, len(runs))
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= len(order) {
								return
							}
							if i%8 == 0 {
								dis.run(t, i/8, k)
							}
							got[order[i]] = runs[order[i]].exec(positdebug.WithBackend(k))
						}
					}()
				}
				wg.Wait()
				for i := range runs {
					if got[i] != want[i] {
						t.Errorf("%s drifted from its golden\n--- got ---\n%s--- want ---\n%s", runs[i].key, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestExecRecycledImageAdversarial runs the filler and then the reader of
// the adversarial pair back to back on one goroutine, so the reader's
// machine and shadow runtime can draw exactly what the filler released:
// on the VM the reader must still see the zero image the tree-walker's
// full per-run clear gives it.
func TestExecRecycledImageAdversarial(t *testing.T) {
	fill, err := positdebug.Compile(advFill)
	if err != nil {
		t.Fatal(err)
	}
	read, err := positdebug.Compile(advRead)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenConfigs {
		tw := renderExec(read.Exec("main", append(c.opts(), positdebug.WithBackend(backend.Treewalk))...))
		for round := 0; round < 3; round++ {
			if _, err := fill.Exec("main", c.opts()...); err != nil {
				t.Fatal(err)
			}
			if vm := renderExec(read.Exec("main", c.opts()...)); vm != tw {
				t.Fatalf("%s round %d: reader saw the filler's image\n--- vm ---\n%s--- treewalk ---\n%s", c.name, round, vm, tw)
			}
		}
	}
}

// TestExecConcurrentFreshProgram calls Exec from eight goroutines on one
// freshly compiled Program — shadow, baseline, dd, sampled, Herbgrind and
// WithSkip runs on both backends at once — with no earlier call to warm
// its lazy caches. Each must match the same run on a separate Program.
func TestExecConcurrentFreshProgram(t *testing.T) {
	k, _ := workloads.KernelByName("atax")
	src, err := positdebug.RefactorToPosit(k.Source(8))
	if err != nil {
		t.Fatal(err)
	}
	configs := append([]goldenConfig{}, goldenConfigs...)
	configs = append(configs,
		goldenConfig{"herbgrind", func() []positdebug.Option {
			return []positdebug.Option{positdebug.WithHerbgrind(256)}
		}},
		goldenConfig{"skip", func() []positdebug.Option {
			return []positdebug.Option{positdebug.WithSkip("init_data")}
		}})
	const goroutines = 8
	opts := func(g int) []positdebug.Option {
		kind := backend.VM
		if g%2 == 1 {
			kind = backend.Treewalk
		}
		return append(configs[g%len(configs)].opts(), positdebug.WithBackend(kind))
	}
	ref, err := positdebug.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var want [goroutines]string
	for g := range want {
		want[g] = renderExec(ref.Exec("main", opts(g)...))
	}
	for round := 0; round < 4; round++ {
		prog, err := positdebug.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		var got [goroutines]string
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = renderExec(prog.Exec("main", opts(g)...))
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want[g] {
				t.Errorf("round %d goroutine %d (%s): got\n%s--- want ---\n%s", round, g, configs[g%len(configs)].name, got[g], want[g])
			}
		}
	}
}
