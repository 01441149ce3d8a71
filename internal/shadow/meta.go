// Package shadow implements the PositDebug/FPSanitizer runtime: shadow
// execution with high-precision values, the paper's constant-size metadata
// per memory location and per temporary (§3.2), metadata propagation on
// loads, stores, calls and returns (§3.3), detection and classification of
// numerical errors (§3.4), and DAG construction for debugging (§3.5).
//
// The same runtime serves both posit programs (PositDebug) and IEEE FP
// programs (FPSanitizer) — exactly the paper's claim that the metadata
// design generalizes; only value decoding differs per type. The shadow
// arithmetic itself is pluggable (internal/shadow/oracle): the paper's
// arbitrary-precision bigfp oracle, an allocation-free double-double
// oracle, or a residue-tracking float64 oracle, selected by Config.Oracle.
package shadow

import (
	"runtime"
	"sync"

	"positdebug/internal/ir"
	"positdebug/internal/shadow/oracle"
)

// mdRef is a guarded pointer to a temporary's metadata: the lock-and-key
// pair captured when the reference was created decides at use time whether
// the referenced frame is still alive (§3.2 "lock-and-key metadata for
// temporal safety"). A stale reference fails the key comparison because
// keys increase monotonically and are never reused.
type mdRef struct {
	md   *TempMeta
	lock *uint64
	key  uint64
}

// valid reports whether the reference may be dereferenced.
func (r mdRef) valid() bool { return r.md != nil && r.lock != nil && *r.lock == r.key }

// TempMeta is the constant-size metadata of one temporary (virtual
// register), Figure 3(b) of the paper: the high-precision shadow value, the
// program's bit-pattern value, the producing instruction, guarded pointers
// to the operands' metadata, the owning frame's lock and key, and the
// timestamp that orders updates when a static temporary is rewritten in a
// loop.
type TempMeta struct {
	Real  oracle.Value // shadow value (in-place, storage reused across updates)
	Undef bool         // shadow value undefined (NaR/NaN territory)
	Prog  uint64       // program bits at write time
	Inst  int32        // producing instruction id (−1 unknown)
	Err   int32        // bits of error recorded when produced
	Time  uint64       // update timestamp
	Op1   mdRef
	Op2   mdRef

	lock    *uint64
	key     uint64
	written bool

	// pv caches the detection pass's decoded view of Prog (see fastpath.go).
	// Validity is keyed on (pvBits, pv.typ) matching the read, so the cache
	// is a pure memoization and never needs invalidating when Prog changes.
	pv     pval
	pvBits uint64
}

// ref returns a guarded reference to t.
func (t *TempMeta) ref() mdRef { return mdRef{md: t, lock: t.lock, key: t.key} }

// MemMeta is the constant-size metadata of one memory location, Figure 3(a)
// of the paper: shadow value, guarded pointer to the last writer's
// temporary metadata, producing instruction, and the program's stored bits
// (used both to detect writes by uninstrumented code, §4.1, and to
// re-initialize after branch flips).
type MemMeta struct {
	Real   oracle.Value
	Undef  bool
	Writer mdRef
	Inst   int32
	Err    int32
	Prog   uint64
	epoch  uint32 // resync epoch; lags runtime.flipEpoch until refreshed
	set    bool

	// pv caches the decoded view of the stored bits (see fastpath.go).
	// Like TempMeta's cache it is a pure memoization keyed on (pvBits,
	// pv.typ), so generation rollover and resyncs need not clear it: a
	// stale entry whose key still matches is still correct.
	pv     pval
	pvBits uint64
}

// shadowMem is the two-level trie mapping program addresses to MemMeta
// (§4.1 "Shadow memory"). First-level entries exist for the whole address
// space up front; second-level pages are allocated on demand, so shadow
// memory usage is proportional to the program's footprint.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// shadowPage is one second-level page, the generation that last touched
// it, and the index of every cell a run set. Pages survive Runtime.Reset,
// which clears exactly the set cells and bumps the trie's generation, so
// the cells' bigfp mantissa words stay allocated across runs.
type shadowPage struct {
	gen   uint64
	cells [pageSize]MemMeta
	setAt []uint16 // cells whose set went true since the last clear
}

// markSet sets cell i, recording it for clearSet.
func (pg *shadowPage) markSet(i uint32) {
	if c := &pg.cells[i]; !c.set {
		c.set = true
		pg.setAt = append(pg.setAt, uint16(i))
	}
}

// clearSet drops the metadata of every set cell, writer references
// included, and keeps the cells' allocated mantissas and the index list's
// storage.
func (pg *shadowPage) clearSet() {
	for _, i := range pg.setAt {
		c := &pg.cells[i]
		c.set = false
		c.Writer = mdRef{}
	}
	pg.setAt = pg.setAt[:0]
}

// freePages is the free list behind Runtime.Release: pages of finished
// runtimes, at most pagesPerProc·GOMAXPROCS of them, which a runtime takes
// before allocating a page. A page is cleared before it is listed, so a
// listed page holds no set cell and no reference into its last runtime.
var freePages struct {
	sync.Mutex
	pages []*shadowPage
}

// pagesPerProc is how many free pages the list keeps per GOMAXPROCS: a
// typical run touches two (its globals' page and the top of its stack).
const pagesPerProc = 2

// takePage returns a page for an empty trie slot: a released one or a
// fresh one.
func takePage(gen uint64) *shadowPage {
	freePages.Lock()
	var pg *shadowPage
	if n := len(freePages.pages); n > 0 {
		pg = freePages.pages[n-1]
		freePages.pages[n-1] = nil
		freePages.pages = freePages.pages[:n-1]
	}
	freePages.Unlock()
	if pg == nil {
		return &shadowPage{gen: gen}
	}
	pg.gen = gen
	return pg
}

type shadowMem struct {
	pages     []*shadowPage
	gen       uint64
	allocated int // second-level pages touched this generation

	// One-entry lookup cache: loop nests hit the same page for long runs,
	// so the common get() is an index compare instead of a trie walk. The
	// cached page is always one already validated for the current
	// generation; reset() drops it.
	lastIdx uint32
	last    *shadowPage
}

func newShadowMem(limit uint32) *shadowMem {
	n := (int(limit) + pageSize - 1) / pageSize
	return &shadowMem{pages: make([]*shadowPage, n), gen: 1}
}

// reset starts a new generation: pages (and their mantissas) are kept with
// every set cell cleared. The touched-page counter restarts, and a kept
// page counts again on its first touch of the new generation, so the
// shadow-memory budget keeps its per-run semantics.
func (s *shadowMem) reset() {
	for _, pg := range s.pages {
		if pg != nil {
			pg.clearSet()
		}
	}
	s.gen++
	s.allocated = 0
	s.last = nil
}

// get returns the metadata cell for addr, allocating or revalidating its
// page on demand.
func (s *shadowMem) get(addr uint32) *MemMeta {
	p := addr >> pageBits
	if p == s.lastIdx && s.last != nil {
		return &s.last.cells[addr&pageMask]
	}
	return &s.touch(p).cells[addr&pageMask]
}

// touch returns page p, allocating it or counting its first touch of this
// generation, and makes it the lookup cache's page.
func (s *shadowMem) touch(p uint32) *shadowPage {
	if int(p) >= len(s.pages) {
		// Grow geometrically for machines with larger stacks than the
		// initial limit: doubling keeps page-table extension amortized O(1)
		// per page instead of re-copying the table on every new high page.
		newLen := 2 * len(s.pages)
		if newLen < int(p)+1 {
			newLen = int(p) + 1
		}
		np := make([]*shadowPage, newLen)
		copy(np, s.pages)
		s.pages = np
	}
	pg := s.pages[p]
	switch {
	case pg == nil:
		pg = takePage(s.gen)
		s.pages[p] = pg
		s.allocated++
	case pg.gen != s.gen:
		// First touch this generation; reset already cleared the page.
		pg.gen = s.gen
		s.allocated++
	}
	s.lastIdx, s.last = p, pg
	return pg
}

// markSet sets the cell at addr, which get has returned this generation.
func (s *shadowMem) markSet(addr uint32) {
	s.pages[addr>>pageBits].markSet(addr & pageMask)
}

// pageCount reports second-level pages touched this generation (tests,
// stats, and the shadow-memory budget).
func (s *shadowMem) pageCount() int { return s.allocated }

// release empties the trie onto the free list, up to the list's bound,
// clearing each page it lists; pages past the bound are left to the garbage
// collector.
func (s *shadowMem) release() {
	s.last = nil
	freePages.Lock()
	defer freePages.Unlock()
	room := pagesPerProc*runtime.GOMAXPROCS(0) - len(freePages.pages)
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		s.pages[i] = nil
		if room > 0 {
			pg.clearSet()
			freePages.pages = append(freePages.pages, pg)
			room--
		}
	}
}

// shadowFrame holds the temporary metadata of one activation. Frames are
// pooled: the paper bounds stack-side metadata by the static temporary
// count per function, and the pool keeps allocation out of the hot path.
type shadowFrame struct {
	fn      *ir.Func
	temps   []TempMeta
	lockIdx int
}

// reset prepares a pooled frame for reuse, keeping allocated bigfp
// mantissa words but invalidating all metadata.
func (f *shadowFrame) reset(n int32) {
	if cap(f.temps) < int(n) {
		f.temps = make([]TempMeta, n)
		return
	}
	f.temps = f.temps[:n]
	for i := range f.temps {
		t := &f.temps[i]
		t.written = false
		t.Undef = false
		t.Op1 = mdRef{}
		t.Op2 = mdRef{}
		t.Inst = -1
		t.Err = 0
	}
}
