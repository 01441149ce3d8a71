package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/interp"
	"positdebug/internal/obs"
)

// This file is the worker side of the distributed campaign/profile fabric
// (internal/fabric is the coordinator side): shard endpoints that execute
// a slice of an embarrassingly-parallel sweep. Both go through the same
// bounded admission queue as /run — a shard occupies one slot for its
// whole duration, so a saturated worker sheds further shards with 429 and
// the queue-depth-derived Retry-After, which is exactly the backpressure
// signal the coordinator's backoff honors.

// handleCampaignShard executes runs [lo, hi) of one architecture of a
// fault-injection campaign (faultinject.RunShard) and streams back the
// classified results plus the golden info they were judged against.
func (s *Server) handleCampaignShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, "bad-request", "POST only")
		return
	}
	release, code := s.admit(r.Context())
	if code != 0 {
		s.rejectAdmission(w, code)
		return
	}
	defer release()
	defer func() {
		if rec := recover(); rec != nil {
			s.writeErr(w, http.StatusInternalServerError, "internal-fault",
				fmt.Sprintf("panic serving shard: %v", rec))
		}
	}()

	// Shards carry the coordinator's trace context: the flight adopts the
	// stamped X-Request-Id and traceparent so the worker-side request span
	// lands under the coordinator's attempt span in the merged fleet trace.
	fl := s.newFlight(r)
	w.Header().Set(obs.RequestIDHeader, fl.id)

	var req faultinject.ShardRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.failRun(w, fl, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error())
		return
	}
	sp := fl.tr.Start("campaign-shard")
	res, err := faultinject.RunShard(r.Context(), req)
	sp.End()
	if err != nil {
		code, kind := shardStatusFor(err)
		s.failRun(w, fl, code, kind, err.Error())
		return
	}
	fl.span.End()
	s.reg.Counter(`pd_serve_shards_total{kind="campaign"}`).Inc()
	s.reg.Counter(`pd_serve_requests_total{code="200"}`).Inc()
	writeJSON(w, http.StatusOK, res)
	s.closeFlight(fl)
}

// handleProfileShard executes one slice of a profiling sweep
// (harness.RunProfileShard) and returns the canonical profile JSON, ready
// for the coordinator's commutative merge.
func (s *Server) handleProfileShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, "bad-request", "POST only")
		return
	}
	release, code := s.admit(r.Context())
	if code != 0 {
		s.rejectAdmission(w, code)
		return
	}
	defer release()
	defer func() {
		if rec := recover(); rec != nil {
			s.writeErr(w, http.StatusInternalServerError, "internal-fault",
				fmt.Sprintf("panic serving shard: %v", rec))
		}
	}()

	fl := s.newFlight(r)
	w.Header().Set(obs.RequestIDHeader, fl.id)

	var req harness.ProfileShard
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.failRun(w, fl, http.StatusBadRequest, "bad-request", "invalid JSON body: "+err.Error())
		return
	}
	sp := fl.tr.Start("profile-shard")
	prof, err := harness.RunProfileShard(r.Context(), req)
	sp.End()
	if err != nil {
		code, kind := shardStatusFor(err)
		s.failRun(w, fl, code, kind, err.Error())
		return
	}
	fl.span.End()
	s.reg.Counter(`pd_serve_shards_total{kind="profile"}`).Inc()
	s.reg.Counter(`pd_serve_requests_total{code="200"}`).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = prof.WriteJSON(w)
	s.closeFlight(fl)
}

// shardStatusFor maps a shard error onto the failure taxonomy: interpreter
// failures keep their /run semantics; anything else (validation, unknown
// workload, version skew, compile) is the coordinator's fault — 400, so a
// coordinator never retries a request that can't succeed.
func shardStatusFor(err error) (int, string) {
	var c *interp.Cancelled
	var re *interp.ResourceExhausted
	var f *interp.InternalFault
	var tr *interp.Trap
	switch {
	case errors.As(err, &c), errors.As(err, &re), errors.As(err, &f), errors.As(err, &tr):
		return statusFor(err)
	default:
		return http.StatusBadRequest, "bad-request"
	}
}
