package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("polybench/kernel-%d|8|posit", i)
	}
	return keys
}

// TestRingMinimalMovement is the consistent-hashing contract: removing one
// member may move only the keys that member owned; adding one may move
// only keys onto the newcomer. Everything else keeps its warm worker.
func TestRingMinimalMovement(t *testing.T) {
	workers := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	keys := ringKeys(300)
	full := NewRing(workers, 0)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = full.Owner(k)
	}

	// Remove d: only d's keys may change owner.
	smaller := NewRing(workers[:3], 0)
	moved := 0
	for _, k := range keys {
		after := smaller.Owner(k)
		if before[k] != "http://d:4" {
			if after != before[k] {
				t.Fatalf("key %q moved from %s to %s though its owner stayed in the ring", k, before[k], after)
			}
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed member; test has no power")
	}

	// Add e: keys either stay put or move onto e, never between survivors.
	bigger := NewRing(append(append([]string{}, workers...), "http://e:5"), 0)
	movedToE := 0
	for _, k := range keys {
		after := bigger.Owner(k)
		if after == before[k] {
			continue
		}
		if after != "http://e:5" {
			t.Fatalf("adding a member moved key %q from %s to %s (not the newcomer)", k, before[k], after)
		}
		movedToE++
	}
	if movedToE == 0 {
		t.Fatal("the new member took no keys; test has no power")
	}
	// With 5 members the newcomer should take roughly 1/5 of the keyspace.
	if frac := float64(movedToE) / float64(len(keys)); frac > 0.45 {
		t.Fatalf("newcomer took %.0f%% of keys; vnode spread is badly skewed", frac*100)
	}
}

// TestRingOrderDeterministic: Order lists every member exactly once,
// starting at the key's owner, identically across rebuilds — the fallback
// worker for a kernel is as sticky as its first choice.
func TestRingOrderDeterministic(t *testing.T) {
	workers := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := NewRing(workers, 0)
	r2 := NewRing([]string{"http://c:3", "http://a:1", "http://b:2"}, 0) // order-independent
	for _, k := range ringKeys(50) {
		o1, o2 := r1.Order(k), r2.Order(k)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("Order(%q) differs across identically-membered rings: %v vs %v", k, o1, o2)
		}
		if len(o1) != len(workers) {
			t.Fatalf("Order(%q) = %v, want all %d members", k, o1, len(workers))
		}
		if o1[0] != r1.Owner(k) {
			t.Fatalf("Order(%q) starts at %s, Owner is %s", k, o1[0], r1.Owner(k))
		}
		seen := map[string]bool{}
		for _, u := range o1 {
			if seen[u] {
				t.Fatalf("Order(%q) repeats %s", k, u)
			}
			seen[u] = true
		}
	}
}

// TestRingBalance: with DefaultVirtualNodes the per-member load for a
// uniform keyspace stays within a sane band of fair share.
func TestRingBalance(t *testing.T) {
	workers := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := NewRing(workers, 0)
	counts := map[string]int{}
	keys := ringKeys(2000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := len(keys) / len(workers)
	for _, w := range workers {
		if c := counts[w]; c < fair/3 || c > fair*3 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d); distribution badly skewed: %v", w, c, len(keys), fair, counts)
		}
	}
}

// TestRingJoinMovesFairShare bounds the placement property over many
// fleets instead of one lucky draw: across 200 seeded synthetic fleets of
// three loopback workers on random ports, a fourth member joining should
// take about its fair quarter of the keyspace. The 5th and 95th
// percentiles of the moved fraction must both lie in [0.15, 0.35]. An
// unmixed vnode hash clusters a member's points, so its moved fraction
// swings with the port numbers far outside that band.
func TestRingJoinMovesFairShare(t *testing.T) {
	const fleets = 200
	keys := ringKeys(2000)
	rng := rand.New(rand.NewSource(1))
	port := func() string { return fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64512)) }
	moved := make([]float64, fleets)
	for f := range moved {
		members := []string{port(), port(), port()}
		before := NewRing(members, 0)
		after := NewRing(append(members, port()), 0)
		n := 0
		for _, k := range keys {
			if before.Owner(k) != after.Owner(k) {
				n++
			}
		}
		moved[f] = float64(n) / float64(len(keys))
	}
	sort.Float64s(moved)
	p5, p95 := moved[fleets*5/100], moved[fleets*95/100]
	if p5 < 0.15 || p95 > 0.35 {
		t.Fatalf("a 3→4 join moved %.3f (p5) to %.3f (p95) of keys; want both in [0.15, 0.35]", p5, p95)
	}
	t.Logf("3→4 join moved fraction over %d fleets: p5 %.3f, p95 %.3f", fleets, p5, p95)
}

// TestWeightedRingCapacityProportional: arc share tracks advertised
// capacity, unadvertised capacity weighs like 1, and absurd
// advertisements clamp at MaxRingWeight.
func TestWeightedRingCapacityProportional(t *testing.T) {
	keys := ringKeys(4000)
	r := NewWeightedRing(map[string]int{"http://big:1": 4, "http://small:2": 1}, 0)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	frac := float64(counts["http://big:1"]) / float64(len(keys))
	if frac < 0.65 || frac > 0.95 {
		t.Fatalf("capacity-4 member owns %.0f%% of keys next to a capacity-1 member; want ~80%%", frac*100)
	}

	// Capacity 0 (never advertised) weighs exactly 1: owners match the
	// unweighted ring for every key.
	workers := []string{"http://a:1", "http://b:2", "http://c:3"}
	unweighted := NewRing(workers, 0)
	zero := NewWeightedRing(map[string]int{"http://a:1": 0, "http://b:2": 0, "http://c:3": 0}, 0)
	for _, k := range keys[:500] {
		if unweighted.Owner(k) != zero.Owner(k) {
			t.Fatalf("zero-capacity weighted ring disagrees with unweighted ring on %q", k)
		}
	}

	// A runaway advertisement clamps: 1<<20 weighs the same as MaxRingWeight.
	clamped := NewWeightedRing(map[string]int{"http://big:1": 1 << 20, "http://small:2": 1}, 0)
	max := NewWeightedRing(map[string]int{"http://big:1": MaxRingWeight, "http://small:2": 1}, 0)
	for _, k := range keys[:500] {
		if clamped.Owner(k) != max.Owner(k) {
			t.Fatalf("clamping failed: weight 1<<20 and %d disagree on %q", MaxRingWeight, k)
		}
	}
}

// TestWeightedRingMinimalMovement: re-weighting one member moves keys
// only to or from that member — bystanders keep their warm workers, the
// same contract membership changes honor.
func TestWeightedRingMinimalMovement(t *testing.T) {
	keys := ringKeys(1000)
	caps := map[string]int{"http://a:1": 1, "http://b:2": 1, "http://c:3": 1}
	before := NewWeightedRing(caps, 0)
	owners := make(map[string]string, len(keys))
	for _, k := range keys {
		owners[k] = before.Owner(k)
	}

	// Raise a's weight: every moved key must land on a.
	caps["http://a:1"] = 3
	grown := NewWeightedRing(caps, 0)
	movedToA := 0
	for _, k := range keys {
		after := grown.Owner(k)
		if after == owners[k] {
			continue
		}
		if after != "http://a:1" {
			t.Fatalf("raising a's weight moved key %q from %s to %s (not a)", k, owners[k], after)
		}
		movedToA++
	}
	if movedToA == 0 {
		t.Fatal("tripling a member's weight moved no keys; test has no power")
	}

	// Lower it back: the ring must return to the exact original ownership.
	caps["http://a:1"] = 1
	shrunk := NewWeightedRing(caps, 0)
	for _, k := range keys {
		if shrunk.Owner(k) != owners[k] {
			t.Fatalf("restoring a's weight did not restore ownership of %q", k)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	if got := empty.Order("k"); got != nil {
		t.Fatalf("empty ring Order = %v, want nil", got)
	}
	dup := NewRing([]string{"http://a:1", "http://a:1", "", "http://a:1"}, 0)
	if dup.Len() != 1 {
		t.Fatalf("duplicate/empty URLs not collapsed: %v", dup.Members())
	}
	if got := dup.Owner("anything"); got != "http://a:1" {
		t.Fatalf("single-member ring Owner = %q", got)
	}
}
