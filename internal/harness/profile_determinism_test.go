package harness

import (
	"bytes"
	"testing"

	"positdebug/internal/obs"
	"positdebug/internal/profile"
)

// recordAt runs one profiling sweep at a worker count and returns the
// canonical profile bytes and the Chrome-trace bytes.
func recordAt(t *testing.T, workers, sample int) ([]byte, []byte) {
	t.Helper()
	log := &obs.Log{}
	p, err := RecordProfile(ProfileOptions{
		Kernel:  "gemm",
		N:       8,
		Posit:   true,
		Runs:    4,
		Workers: workers,
		Sample:  sample,
		Trace:   log,
	})
	if err != nil {
		t.Fatalf("RecordProfile(workers=%d, sample=%d): %v", workers, sample, err)
	}
	var pj bytes.Buffer
	if err := p.WriteJSON(&pj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tj bytes.Buffer
	if err := obs.WriteChromeTrace(&tj, log.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return pj.Bytes(), tj.Bytes()
}

// TestProfileParallelDeterminism: the merged profile and the Chrome trace
// of a profiling sweep are byte-identical whether the runs execute on one
// worker or shard across four — each worker owns a private collector,
// per-run events are drained in run-index order, and the collector merge
// is commutative. The name matches the ParallelDeterminism filter `make
// race` runs under -race -cpu=1,4.
func TestProfileParallelDeterminism(t *testing.T) {
	for _, sample := range []int{1, 16} {
		seqP, seqT := recordAt(t, 1, sample)
		parP, parT := recordAt(t, 4, sample)
		if !bytes.Equal(seqP, parP) {
			t.Errorf("sample=%d: parallel profile diverged from sequential (%d vs %d bytes)",
				sample, len(seqP), len(parP))
		}
		if !bytes.Equal(seqT, parT) {
			t.Errorf("sample=%d: parallel Chrome trace diverged from sequential (%d vs %d bytes)",
				sample, len(seqT), len(parT))
		}
		if n, err := obs.ValidateChromeTrace(bytes.NewReader(seqT)); err != nil {
			t.Errorf("sample=%d: Chrome trace invalid: %v", sample, err)
		} else if n == 0 {
			t.Errorf("sample=%d: Chrome trace has no events", sample)
		}
	}
}

// TestProfileTopRanks: a recorded profile names instructions with source
// positions and ranks them by aggregate error.
func TestProfileTopRanks(t *testing.T) {
	p, err := RecordProfile(ProfileOptions{Kernel: "gemm", N: 8, Posit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) == 0 {
		t.Fatal("profile recorded no instructions")
	}
	top := p.Top(5)
	if len(top) == 0 {
		t.Fatal("Top(5) empty")
	}
	for i := 1; i < len(top); i++ {
		if top[i].ErrSum > top[i-1].ErrSum {
			t.Fatalf("Top not sorted by ErrSum: %d before %d", top[i-1].ErrSum, top[i].ErrSum)
		}
	}
	for _, ip := range top {
		if ip.Pos == "" || ip.Func == "" {
			t.Fatalf("instruction %d missing position metadata: %+v", ip.ID, ip)
		}
	}
	var rendered bytes.Buffer
	if err := p.WriteTop(&rendered, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rendered.Bytes(), []byte("gemm:")) {
		t.Fatalf("WriteTop output lacks source positions:\n%s", rendered.String())
	}
}

// TestProfileSampledSubset: a sampled profile checks a strict subset of
// the full profile's dynamic instances but still sees every static
// instruction at least once (first instance always shadowed).
func TestProfileSampledSubset(t *testing.T) {
	full, err := RecordProfile(ProfileOptions{Kernel: "gemm", N: 8, Posit: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RecordProfile(ProfileOptions{Kernel: "gemm", N: 8, Posit: true, Sample: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SampleEvery != 16 {
		t.Fatalf("SampleEvery = %d, want 16", sampled.SampleEvery)
	}
	fullByID := map[int32]*profile.InstProfile{}
	var fullChecked, sampChecked int64
	for _, ip := range full.Insts {
		fullByID[ip.ID] = ip
		fullChecked += ip.Checked
	}
	for _, ip := range sampled.Insts {
		sampChecked += ip.Checked
		fp, ok := fullByID[ip.ID]
		if !ok {
			t.Fatalf("sampled profile has instruction %d absent from full profile", ip.ID)
		}
		if ip.Count != fp.Count {
			t.Errorf("inst %d: dynamic count %d under sampling, %d full — counts must not be sampled",
				ip.ID, ip.Count, fp.Count)
		}
		if ip.Checked == 0 && ip.Count > 0 {
			t.Errorf("inst %d: never checked despite %d instances (first must be sampled)", ip.ID, ip.Count)
		}
	}
	if sampChecked >= fullChecked {
		t.Fatalf("sampling checked %d ops, full shadow %d — expected a reduction", sampChecked, fullChecked)
	}
}
