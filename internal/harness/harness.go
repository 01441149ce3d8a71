// Package harness drives the paper's experiments: it compiles each
// workload in FP and (via the refactorer) posit form, measures baseline and
// shadow-instrumented execution times, and formats the tables behind every
// figure of the evaluation (Figures 7–10, the §5.1 detection table, the
// §5.4 Herbgrind comparison, and the §5.2 case studies).
package harness

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	positdebug "positdebug"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks problem sizes so a full figure regenerates in seconds
	// (used by tests); the default sizes regenerate in minutes.
	Quick bool
	// Repeats is the number of interleaved timing repetitions (see
	// Sample); the tables keep each variant's best. Default 2.
	Repeats int
	// Parallel shards the per-kernel sweeps across CPUs. Tables come out in
	// the same kernel order either way; because every figure reports
	// slowdown ratios of co-scheduled measurements (baseline and
	// instrumented runs contend equally), the ratios stay meaningful under
	// contention — pass false when absolute per-run times matter.
	Parallel bool
}

func (o Options) repeats() int {
	if o.Repeats <= 0 {
		return 2
	}
	return o.Repeats
}

func (o Options) size(defaultN int) int {
	if !o.Quick {
		return defaultN
	}
	n := defaultN / 2
	if n < 8 {
		n = 8
	}
	return n
}

// Sample is the one wall-clock sampler behind every timed comparison: the
// paper's tables here and pdbench's profile and fabric rows. Each of the k
// repetitions runs every f once, in turn, from a collected heap, so a
// stretch of slow host time lands on neighbouring samples of every
// variant rather than on whichever was being repeated. Odd repetitions
// run the variants in reverse order, so no variant always runs first or
// always right after another. Every sample is kept, in seconds:
// out[i][r] is fs[i]'s time in repetition r. The tables reduce a
// variant's samples to their best (slices.Min); pdbench reduces them with
// Quartiles.
func Sample(k int, fs ...func() error) ([][]float64, error) {
	out := make([][]float64, len(fs))
	for r := range k {
		for j := range fs {
			i := j
			if r%2 == 1 {
				i = len(fs) - 1 - j
			}
			runtime.GC()
			t0 := time.Now()
			if err := fs[i](); err != nil {
				return nil, err
			}
			out[i] = append(out[i], time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// Quartiles returns the lower quartile, median and upper quartile of xs,
// interpolating linearly between order statistics. q3 − q1 is the
// quartile spread pdbench records beside each median.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Table is a named grid of per-benchmark values with a geometric-mean row,
// the shape of the paper's figures.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Geomean []float64
}

// Row is one benchmark's values.
type Row struct {
	Name   string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// FinishGeomean computes the geometric mean of each column.
func (t *Table) FinishGeomean() {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Values)
	t.Geomean = make([]float64, n)
	for c := 0; c < n; c++ {
		logSum := 0.0
		count := 0
		for _, r := range t.Rows {
			if c < len(r.Values) && r.Values[c] > 0 {
				logSum += math.Log(r.Values[c])
				count++
			}
		}
		if count > 0 {
			t.Geomean[c] = math.Exp(logSum / float64(count))
		}
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	fmt.Fprintf(&sb, "%-16s", "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%14s", c)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-16s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&sb, "%14.2f", v)
		}
		sb.WriteString("\n")
	}
	if t.Geomean != nil {
		fmt.Fprintf(&sb, "%-16s", "geomean")
		for _, v := range t.Geomean {
			fmt.Fprintf(&sb, "%14.2f", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// compiled caches the FP and posit programs of one kernel at one size.
type compiled struct {
	fp  *positdebug.Program
	pos *positdebug.Program
}

func (c compiled) floatProg() *positdebug.Program { return c.fp }

func (c compiled) positProg() *positdebug.Program { return c.pos }

func compileBoth(src string) (compiled, error) {
	fp, err := positdebug.Compile(src)
	if err != nil {
		return compiled{}, fmt.Errorf("FP compile: %w", err)
	}
	psrc, err := positdebug.RefactorToPosit(src)
	if err != nil {
		return compiled{}, fmt.Errorf("refactor: %w", err)
	}
	pos, err := positdebug.Compile(psrc)
	if err != nil {
		return compiled{}, fmt.Errorf("posit compile: %w", err)
	}
	return compiled{fp: fp, pos: pos}, nil
}

// shadowConfig builds a runtime config at a bigfp precision, with tracing
// and thresholds tuned for overhead measurement (reporting capped so
// report construction never dominates).
func shadowConfig(precision uint, tracing bool) shadow.Config {
	return shadowConfigOracle(oracle.BigFP, precision, tracing)
}

// shadowConfigOracle is shadowConfig retargeted at any shadow oracle —
// pdbench's per-oracle comparison rows are measured through it.
func shadowConfigOracle(kind oracle.Kind, precision uint, tracing bool) shadow.Config {
	cfg := shadow.ConfigFor(kind, precision)
	cfg.Tracing = tracing
	cfg.MaxReports = 4
	return cfg
}
