package obs

// WorkerStats is the compact telemetry snapshot a worker's heartbeat
// carries to the coordinator — cheap enough to marshal every beat, rich
// enough for /fleet/status to answer "is this worker healthy and what is
// it doing" without another round trip. It lives in obs (not fabric or
// server) because both sides of the wire depend on the schema.
type WorkerStats struct {
	// QueueDepth is admission-queue length (requests waiting for a slot).
	QueueDepth int64 `json:"queue_depth"`
	// InFlight is requests currently executing.
	InFlight int64 `json:"inflight"`
	// ShadowTier names the worker's current shadow-oracle operating point
	// (e.g. "bigfp-256", "dd", "dd/sample-16") after watchdog degradation.
	ShadowTier string `json:"shadow_tier"`
	// Degraded is true when the memory watchdog has stepped the worker
	// down from its configured tier.
	Degraded bool `json:"degraded,omitempty"`
	// CacheHits / CacheMisses are cumulative compile-cache counters. Only
	// /run reads the cache; campaign and profile shards compile from
	// source on every call.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Detections is the cumulative shadow-oracle detection count across
	// all kinds.
	Detections int64 `json:"detections"`
	// Shards is the cumulative count of campaign/profile shards served.
	Shards int64 `json:"shards"`
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (s WorkerStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}
