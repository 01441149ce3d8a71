package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-to-current-value metric, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistMax is the largest exactly-bucketed histogram value: error bits run
// 0..64, so every possible double-ULP error count has its own bucket;
// larger observations land in one overflow bucket.
const HistMax = 64

// Histogram counts integer observations on the 0..HistMax scale (the
// error-bits domain of the paper's §4.2 metric), one bucket per value plus
// an overflow bucket. Observations arrive in batches through Fold; safe
// for concurrent use.
type Histogram struct {
	buckets [HistMax + 2]atomic.Int64 // [0..64] exact, [65] overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Fold adds c's observations to h and empties c.
func (h *Histogram) Fold(c *HistCounts) {
	var n int64
	for i, b := range c.buckets {
		if b != 0 {
			h.buckets[i].Add(b)
			n += b
		}
	}
	if n != 0 {
		h.count.Add(n)
		h.sum.Add(c.sum)
	}
	*c = HistCounts{}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket returns the count of observations equal to v (or, for
// v == HistMax+1, greater than HistMax).
func (h *Histogram) Bucket(v int) int64 {
	if v < 0 || v > HistMax+1 {
		return 0
	}
	return h.buckets[v].Load()
}

// Quantile returns the smallest bucket value at or below which at least
// q of the observations fall — a coarse integer quantile. q is clamped
// into [0, 1]: q ≤ 0 returns the smallest observed bucket, q ≥ 1 the
// largest (never the overflow bucket unless observations landed there).
// An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 || q != q { // clamp negatives and NaN
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i <= HistMax+1; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i > HistMax {
				return HistMax + 1
			}
			return i
		}
	}
	return HistMax + 1
}

// HistCounts is a Histogram's single-goroutine counterpart: plain counts
// that a hot loop observes into without atomics and folds into a shared
// Histogram once it is done (Histogram.Fold).
type HistCounts struct {
	buckets [HistMax + 2]int64
	sum     int64
}

// Observe records one value (negative values clamp to 0).
func (c *HistCounts) Observe(v int) {
	v = max(v, 0)
	c.buckets[min(v, HistMax+1)]++
	c.sum += int64(v)
}

// Registry holds named counters, gauges and histograms. Metric names may
// carry Prometheus-style labels inline (`pd_detections_total{kind="nar"}`);
// the text dump sorts names, so output is deterministic given deterministic
// metric values. Get-or-create lookups take a mutex; the returned metric
// pointers are lock-free atomics, safe to update from concurrent runs. A
// hot path that updates per operation counts into run-local plain values
// instead (HistCounts for histograms) and adds them here once a run ends,
// so a dump shows a run's observations after that run is over.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SumCounters returns the sum of every counter whose name is exactly base
// or base with an inline label set (`base{...}`) — the aggregate view of
// a labeled counter family, e.g. pd_detections_total across kinds.
func (r *Registry) SumCounters(base string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for name, c := range r.counters {
		if name == base || (len(name) > len(base) && name[:len(base)] == base && name[len(base)] == '{') {
			sum += c.Value()
		}
	}
	return sum
}

func (r *Registry) sortedCounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// baseName strips an inline label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelPrefix rewrites `name{a="b"}` into `name{a="b",` (or `name{` for an
// unlabelled name) so histogram serialization can append its le label.
func labelPrefix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name, "}") + ","
	}
	return name + "{"
}

// WriteProm writes the registry in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as cumulative
// le-bucketed series with _sum and _count. Names are sorted, so the dump
// is deterministic.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	typed := map[string]bool{}
	emitType := func(name, typ string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
		}
	}

	for _, name := range r.sortedCounterNames() {
		emitType(name, "counter")
		if _, err := fmt.Fprintf(w, "%s %d\n", name, r.counters[name].Value()); err != nil {
			return err
		}
	}

	gnames := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		emitType(name, "gauge")
		if _, err := fmt.Fprintf(w, "%s %d\n", name, r.gauges[name].Value()); err != nil {
			return err
		}
	}

	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.hists[name]
		emitType(name, "histogram")
		base := baseName(name)
		pre := labelPrefix(name)
		var cum int64
		for v := 0; v <= HistMax; v++ {
			cum += h.buckets[v].Load()
			// Sparse dump: only emit buckets that change the cumulative
			// count, plus the first; keeps gemm-scale dumps readable.
			if h.buckets[v].Load() == 0 && v != 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%d\"} %d\n", base, pre[len(base):], v, cum); err != nil {
				return err
			}
		}
		cum += h.buckets[HistMax+1].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", base, pre[len(base):], cum)
		fmt.Fprintf(w, "%s_sum%s %d\n", base, labelSuffix(name), h.Sum())
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labelSuffix(name), h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// labelSuffix returns the label set of a metric name ("{...}" or "").
func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

// String renders the Prometheus text dump.
func (r *Registry) String() string {
	var sb strings.Builder
	_ = r.WriteProm(&sb)
	return sb.String()
}

// Publish exposes the registry under the given expvar name as a map of
// metric name → value (histograms export their count, sum and p50/p99).
// Publishing the same name twice is a no-op rather than an expvar panic,
// so repeated runs can call it unconditionally.
func (r *Registry) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} {
		r.mu.Lock()
		defer r.mu.Unlock()
		out := map[string]int64{}
		for n, c := range r.counters {
			out[n] = c.Value()
		}
		for n, g := range r.gauges {
			out[n] = g.Value()
		}
		for n, h := range r.hists {
			out[n+"_count"] = h.Count()
			out[n+"_sum"] = h.Sum()
			out[n+"_p50"] = int64(h.Quantile(0.5))
			out[n+"_p99"] = int64(h.Quantile(0.99))
		}
		return out
	}))
}
