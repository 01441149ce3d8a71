package harness

import (
	"fmt"
	"strings"

	positdebug "positdebug"
	"positdebug/internal/herbgrind"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// MemoryRow is one input size's metadata footprint comparison.
type MemoryRow struct {
	Iterations  int
	DynamicOps  uint64
	ShadowPages int // PositDebug: shadow-memory pages (constant per footprint)
	HerbNodes   int // Herbgrind-style: trace nodes (grows with dynamic ops)
}

// MemoryGrowth demonstrates the paper's central design claim: PositDebug's
// metadata is constant per memory location (shadow pages track the
// program's footprint, not its running time), while the Herbgrind-style design
// accumulates metadata per dynamic instruction. The workload reruns the
// same accumulation loop at growing iteration counts over a fixed-size
// memory footprint.
func MemoryGrowth(iterCounts []int) ([]MemoryRow, error) {
	const src = `
var acc: [16]p32;

func main(n: i64): p32 {
	for (var i: i64 = 0; i < 16; i += 1) {
		acc[i] = 0.0;
	}
	for (var it: i64 = 0; it < n; it += 1) {
		for (var i: i64 = 0; i < 16; i += 1) {
			acc[i] = acc[i] + 1.0625;
		}
	}
	var s: p32 = 0.0;
	for (var i: i64 = 0; i < 16; i += 1) {
		s = s + acc[i];
	}
	return s;
}
`
	prog, err := positdebug.Compile(src)
	if err != nil {
		return nil, err
	}
	inst := instrument.Instrument(prog.Module, instrument.Options{})
	var rows []MemoryRow
	for _, n := range iterCounts {
		// PositDebug runtime (bigfp oracle at 128 bits, the paper's
		// memory-measurement configuration).
		scfg := shadow.Config{Oracle: oracle.BigFP, Precision: 128, Tracing: true, MaxReports: 1}
		rt, err := shadow.New(inst, scfg)
		if err != nil {
			return nil, err
		}
		m := interp.New(inst)
		m.Hooks = rt
		if _, err := m.Run("main", uint64(n)); err != nil {
			return nil, err
		}
		sum := rt.Summary()
		// Herbgrind-style runtime on the same program.
		hg := herbgrind.New(inst, 128)
		m2 := interp.New(inst)
		m2.Hooks = hg
		if _, err := m2.Run("main", uint64(n)); err != nil {
			return nil, err
		}
		rows = append(rows, MemoryRow{
			Iterations:  n,
			DynamicOps:  sum.TotalOps,
			ShadowPages: rt.ShadowMemPages(),
			HerbNodes:   hg.TraceNodes(),
		})
	}
	return rows, nil
}

// FormatMemoryRows renders the comparison.
func FormatMemoryRows(rows []MemoryRow) string {
	var sb strings.Builder
	sb.WriteString("Metadata growth: constant-size (PositDebug) vs per-dynamic-op (Herbgrind-style)\n")
	fmt.Fprintf(&sb, "%12s %14s %18s %18s\n", "iterations", "dynamic ops", "PD shadow pages", "HG trace nodes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%12d %14d %18d %18d\n", r.Iterations, r.DynamicOps, r.ShadowPages, r.HerbNodes)
	}
	return sb.String()
}
