package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member vnode count of the consistent-hash
// ring. 64 points per worker keeps the arc sizes within a few percent of
// uniform for fleets up to the dozens while the whole ring stays small
// enough to rebuild on every membership change.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over worker URLs, keyed by kernel
// identity (workload/source hash). It exists for one reason: compile-cache
// affinity. pdserve workers keep an LRU of compiled, instrumented
// programs, and a sweep that keeps landing same-kernel shards on the same
// worker pays the compile+instrument cost once instead of once per shard.
// Consistent hashing makes that affinity survive churn — when a member
// joins or leaves, only the keys on the moved arc change owner; every
// other kernel keeps hitting its warm worker.
//
// A Ring is immutable once built; membership changes build a new one
// (rebuilds are microseconds at fleet scale). The zero-member ring is
// valid and owns nothing.
type Ring struct {
	points []ringPoint
	urls   []string // distinct members, sorted
}

type ringPoint struct {
	hash uint64
	url  string
}

// NewRing builds a ring over the given worker URLs with
// DefaultVirtualNodes points per member. Duplicate and empty URLs
// collapse to one member or none.
func NewRing(urls []string) *Ring {
	distinct := make([]string, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		if u != "" && !seen[u] {
			seen[u] = true
			distinct = append(distinct, u)
		}
	}
	sort.Strings(distinct)
	r := &Ring{urls: distinct}
	r.points = make([]ringPoint, 0, len(distinct)*DefaultVirtualNodes)
	for _, u := range distinct {
		for i := 0; i < DefaultVirtualNodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(u + "#" + strconv.Itoa(i)), url: u})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].url < r.points[j].url // total order even on hash collisions
	})
	return r
}

// ringHash is FNV-1a 64 followed by the splitmix64 finalizer: stable
// across processes and Go versions, which matters because affinity is only
// worth anything if a restarted coordinator maps the same kernels to the
// same workers. FNV-1a alone barely mixes the short "#i" vnode suffix, so
// a member's vnodes cluster and the share of keys a join moves depends on
// the members' port numbers; the finalizer spreads every vnode over the
// whole ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Members returns the ring's distinct member URLs, sorted.
func (r *Ring) Members() []string { return r.urls }

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.urls) }

// Owner returns the member owning key — the first vnode clockwise from
// the key's hash — or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].url
}

// Order returns every member in ring-walk order starting from key's
// owner: the owner first, then each distinct member as its first vnode is
// passed walking clockwise. This is the fallback order the scheduler uses
// when the owner is busy, ejected or throttled — deterministic per key,
// so a kernel's second-choice worker is as sticky as its first.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.urls))
	seen := make(map[string]bool, len(r.urls))
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < len(r.urls); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.url] {
			seen[p.url] = true
			out = append(out, p.url)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise-after the
// key's hash, wrapping at the top of the ring.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
