package shadow

import (
	"errors"
	"runtime"
	"testing"

	"positdebug/internal/interp"
)

// spreadSrc stores shadowed values across four shadow pages of globals and
// a traced chain of temporaries, so released pages carry set cells and
// writer references.
const spreadSrc = `
var xs: [2048]f64;

func main(): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < 2048; i += 1) {
		xs[i] = f64(i) * 0.5 + 1.0;
		s = s + xs[i];
	}
	print(s);
	return s;
}
`

func drainFreePages() {
	freePages.Lock()
	freePages.pages = nil
	freePages.Unlock()
}

func freePageList() []*shadowPage {
	freePages.Lock()
	defer freePages.Unlock()
	return append([]*shadowPage(nil), freePages.pages...)
}

// TestReleasedPagesAreInvalidated checks that a released runtime lists at
// most pagesPerProc·GOMAXPROCS pages, and that a page taken off the list
// has every cell unset and no writer reference left into that runtime.
func TestReleasedPagesAreInvalidated(t *testing.T) {
	drainFreePages()
	rt, m := buildPipeline(t, spreadSrc, DefaultConfig())
	v0, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	touched := rt.ShadowMemPages()
	rt.Release()
	if rt.ShadowMemPages() != touched {
		t.Fatalf("ShadowMemPages after Release = %d, want the run's %d", rt.ShadowMemPages(), touched)
	}
	pages := freePageList()
	if want := min(touched, pagesPerProc*runtime.GOMAXPROCS(0)); len(pages) != want {
		t.Fatalf("%d pages listed after a run touching %d, want %d", len(pages), touched, want)
	}
	dirty := 0
	for _, c := range pages[len(pages)-1].cells {
		if c.set && c.Writer.md != nil {
			dirty++
		}
	}
	if dirty == 0 {
		t.Fatal("the listed page carries no traced cells: nothing to check")
	}
	pg := takePage(7)
	if pg != pages[len(pages)-1] || pg.gen != 7 {
		t.Fatal("takePage did not hand out the last released page at the trie's generation")
	}
	for i := range pg.cells {
		if c := &pg.cells[i]; c.set || c.Writer != (mdRef{}) {
			t.Fatalf("cell %d of a taken page still set=%v writer=%v", i, c.set, c.Writer.md != nil)
		}
	}
	// The released runtime still runs, on an empty trie, like a fresh one.
	v1, _ := m.Run("main")
	rt2, m2 := buildPipeline(t, spreadSrc, DefaultConfig())
	if v2, _ := m2.Run("main"); v1 != v0 || v2 != v0 || rt2.Summary().TotalOps != rt.Summary().TotalOps {
		t.Fatal("a released runtime's next run differs from a fresh runtime's")
	}
}

// TestBudgetTripOnRecycledPages checks that the shadow-memory budget counts
// a recycled page exactly like a fresh one: the run trips with the same
// ResourceExhausted on a fresh runtime and on one whose pages come off the
// free list (all four of them when GOMAXPROCS ≥ 2).
func TestBudgetTripOnRecycledPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxShadowBytes = 3 * pageSize * (48 + 128) // three bigfp-256 pages
	trip := func() interp.ResourceExhausted {
		t.Helper()
		rt, m := buildPipeline(t, spreadSrc, cfg)
		_, err := m.Run("main")
		var re *interp.ResourceExhausted
		if !errors.As(err, &re) || re.Resource != interp.ResShadowMemory {
			t.Fatalf("want a shadow-memory trip, got %v", err)
		}
		if n := rt.ShadowMemPages(); n != 4 {
			t.Fatalf("tripped at %d pages, want 4", n)
		}
		rt.Release()
		return *re
	}
	drainFreePages()
	fresh := trip()
	for len(freePageList()) < min(4, pagesPerProc*runtime.GOMAXPROCS(0)) {
		rt, m := buildPipeline(t, spreadSrc, DefaultConfig())
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		rt.Release()
	}
	recycled := trip()
	if fresh != recycled {
		t.Fatalf("budget trip differs on recycled pages:\n  fresh    %+v\n  recycled %+v", fresh, recycled)
	}
}
