package shadow

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"positdebug/internal/backend"
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

// spreadReadSrc reads the globals spreadSrc stores, at the same addresses,
// without storing them: on clean pages every load finds an unset cell.
const spreadReadSrc = `
var ys: [2048]f64;

func main(): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < 2048; i += 1) {
		s = s + ys[i];
	}
	print(s);
	return s;
}
`

// TestReleasedPagesAreInvalidated checks that a run records exactly the
// cells it sets, that right after Release no page on the free list (at
// most pagesPerProc·GOMAXPROCS of them) has a set cell or a writer
// reference left into the released runtime, and that a run on reused
// pages, or on the released runtime itself, matches a run on fresh ones.
func TestReleasedPagesAreInvalidated(t *testing.T) {
	drainFreePages()
	rt, m := buildPipeline(t, spreadSrc, DefaultConfig())
	v0, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, pg := range rt.mem.pages {
		if pg == nil {
			continue
		}
		set := map[uint16]bool{}
		for _, i := range pg.setAt {
			if set[i] || !pg.cells[i].set {
				t.Fatalf("set list names cell %d twice or while unset", i)
			}
			set[i] = true
		}
		for i, c := range pg.cells {
			if c.set != set[uint16(i)] {
				t.Fatalf("cell %d set=%v but listed=%v", i, c.set, set[uint16(i)])
			}
			if c.set && c.Writer.md != nil {
				traced++
			}
		}
	}
	if traced == 0 {
		t.Fatal("the run left no traced cells: nothing to check")
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
	for _, pg := range pages {
		if len(pg.setAt) != 0 {
			t.Fatalf("a listed page still lists %d set cells", len(pg.setAt))
		}
		for i := range pg.cells {
			if c := &pg.cells[i]; c.set || c.Writer != (mdRef{}) {
				t.Fatalf("cell %d of a listed page still set=%v writer=%v", i, c.set, c.Writer.md != nil)
			}
		}
	}

	// takePage hands out the last listed page stamped with the taker's
	// generation, so the page counts once in that run's ShadowMemPages. The
	// page goes back on the list for the reader below.
	pg := takePage(7)
	if pg != pages[len(pages)-1] || pg.gen != 7 {
		t.Fatal("takePage did not hand out the last released page at the trie's generation")
	}
	freePages.Lock()
	freePages.pages = append(freePages.pages, pg)
	freePages.Unlock()

	// A reader of the same addresses sees unset cells on reused pages, as
	// on fresh ones; a stale set cell would count an uninstrumented write.
	read := func() (summary string, listed int) {
		t.Helper()
		rt, m := buildPipeline(t, spreadReadSrc, DefaultConfig())
		if _, err := m.Run("main"); err != nil {
			t.Fatal(err)
		}
		s := rt.Summary()
		listed = len(freePageList())
		rt.Release()
		return fmt.Sprintf("ops %d uninstr %d\n%s", s.TotalOps, s.UninstrumentedWrites, s), listed
	}
	reused, left := read()
	if left >= len(pages) {
		t.Fatalf("the reader took no listed page (%d of %d left)", left, len(pages))
	}
	drainFreePages()
	if fresh, _ := read(); reused != fresh {
		t.Fatalf("a run on reused pages differs from one on fresh pages:\n--- reused ---\n%s\n--- fresh ---\n%s", reused, fresh)
	}

	// The released runtime still runs, on an empty trie, like a fresh one.
	// This is its second run, on pages listed by a first run, so it also
	// checks that a taken page counts once in its new generation.
	v1, _ := m.Run("main")
	rt2, m2 := buildPipeline(t, spreadSrc, DefaultConfig())
	if v2, _ := m2.Run("main"); v1 != v0 || v2 != v0 || rt2.Summary().TotalOps != rt.Summary().TotalOps {
		t.Fatal("a released runtime's next run differs from a fresh runtime's")
	}
	if got, want := rt.ShadowMemPages(), rt2.ShadowMemPages(); got != want {
		t.Fatalf("a released runtime's next run counts %d shadow pages, a fresh runtime's %d", got, want)
	}
}

// spreadMaybeSrc stores spreadSrc's globals only when its argument is
// non-zero, and reads them either way.
const spreadMaybeSrc = `
var xs: [2048]f64;

func main(w: i64): f64 {
	var s: f64 = 0.0;
	for (var i: i64 = 0; i < 2048; i += 1) {
		if (w != 0) {
			xs[i] = f64(i) * 0.5 + 1.0;
		}
		s = s + xs[i];
	}
	print(s);
	return s;
}
`

// TestResetClearsSetCells checks that a runtime kept across runs starts
// each run with no set cell: a run that only reads the globals the
// previous run on the same runtime stored reports what it reports on a
// fresh runtime, without counting those stores' leftovers as
// uninstrumented writes.
func TestResetClearsSetCells(t *testing.T) {
	eachBackend(t, func(t *testing.T, k backend.Kind) {
		read := func(rt *Runtime, m *interp.Machine) string {
			t.Helper()
			m.Backend = k
			if _, err := m.Run("main", 0); err != nil {
				t.Fatal(err)
			}
			s := rt.Summary()
			return fmt.Sprintf("ops %d uninstr %d\n%s", s.TotalOps, s.UninstrumentedWrites, s)
		}
		rt, m := buildPipeline(t, spreadMaybeSrc, DefaultConfig())
		m.Backend = k
		if _, err := m.Run("main", 1); err != nil {
			t.Fatal(err)
		}
		kept := read(rt, m)
		if fresh := read(buildPipeline(t, spreadMaybeSrc, DefaultConfig())); kept != fresh {
			t.Fatalf("a kept runtime's next run differs from a fresh one's:\n--- kept ---\n%s\n--- fresh ---\n%s", kept, fresh)
		}
	})
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
