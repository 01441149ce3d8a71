package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	positdebug "positdebug"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
)

// flight is one request's observability context: the request id, the span
// tracer, and (when the recorder is enabled) the bounded log holding the
// request's most recent events, each stamped with the id. The tracer and
// span are nil-safe, so handler code uses them unconditionally.
type flight struct {
	id   string
	tc   obs.TraceContext // cross-process binding from traceparent (zero if none)
	log  *obs.Log
	sink obs.Sink
	tr   *obs.Tracer
	span *obs.Span // the request-level span, closed at response time
}

// maxRequestIDLen bounds an adopted X-Request-Id: longer ids are ignored
// (the server assigns its own) rather than letting a client bloat every
// flight event.
const maxRequestIDLen = 64

// traceBinding extracts the cross-process trace identity an incoming
// request carries: the coordinator-stamped request id and the W3C
// traceparent. Absent or malformed headers return zero values — the
// request just runs untraced under a locally assigned id.
func traceBinding(r *http.Request) (id string, tc obs.TraceContext) {
	if r == nil {
		return "", obs.TraceContext{}
	}
	if rid := r.Header.Get(obs.RequestIDHeader); rid != "" && len(rid) <= maxRequestIDLen {
		id = rid
	}
	tc, _ = obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	return id, tc
}

// newFlight builds the request's flight: the coordinator-stamped request
// id and trace context when the request carries them (so both sides of
// the wire log the same handles), a locally assigned id otherwise. Every
// logged event carries the request id and — when the request arrived with a
// traceparent — the fleet trace id, so a coordinator-side symptom greps
// straight to the worker-side flight dump.
func (s *Server) newFlight(r *http.Request) *flight {
	id, tc := traceBinding(r)
	if id == "" {
		id = fmt.Sprintf("r%08d", s.reqSeq.Add(1))
	}
	fl := &flight{id: id, tc: tc}
	if s.cfg.FlightRecorder > 0 {
		log := obs.NewLog(s.cfg.FlightRecorder)
		trace := tc.TraceID
		fl.log = log
		fl.sink = obs.SinkFunc(func(e obs.Event) {
			e.Req = id
			e.Trace = trace
			log.Emit(e)
		})
		fl.tr = obs.NewTracer(fl.sink)
	}
	// The request span stays a local root: its cross-process parent (the
	// coordinator attempt span) travels in the /debug/trace batch header,
	// keeping the local event stream schema-valid (span ids are a local
	// counter, the coordinator's ids live in another space).
	fl.span = fl.tr.Start("request")
	return fl
}

// failRun answers an error, closing the request span first so it lands in
// the log, and dumps the flight recorder on 5xx — the black-box readout
// for the responses worth investigating.
func (s *Server) failRun(w http.ResponseWriter, fl *flight, code int, kind, msg string) {
	fl.span.End()
	s.reg.Counter(`pd_serve_requests_total{code="` + strconv.Itoa(code) + `"}`).Inc()
	writeJSON(w, code, ErrorResponse{Error: msg, Kind: kind, Req: fl.id})
	if code >= 500 {
		s.dumpFlight(fl)
	}
	s.closeFlight(fl)
}

// dumpFlight writes the request's retained events as JSONL to FlightLog.
// Events keep their in-request sequence numbers and carry the request id,
// so interleaved dumps from concurrent requests still attribute cleanly.
func (s *Server) dumpFlight(fl *flight) {
	if fl.log == nil || s.cfg.FlightLog == nil {
		return
	}
	events := fl.log.Events()
	if len(events) == 0 {
		return
	}
	s.reg.Counter("pd_flight_dumps_total").Inc()
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	enc := json.NewEncoder(s.cfg.FlightLog)
	for _, e := range events {
		if enc.Encode(e) != nil {
			return
		}
	}
}

// closeFlight adds the log's event and drop counts to
// pd_flight_events_total and pd_flight_dropped_total once per request, and
// retains the completed flight's span batch for GET
// /debug/trace/{requestID} — the coordinator fetches it after each
// attempt to assemble the fleet-wide trace.
func (s *Server) closeFlight(fl *flight) {
	if fl.log == nil {
		return
	}
	s.reg.Counter("pd_flight_events_total").Add(int64(fl.log.Total()))
	s.reg.Counter("pd_flight_dropped_total").Add(int64(fl.log.Dropped()))
	if s.traces != nil {
		s.traces.put(obs.RequestTrace{
			Req: fl.id, Trace: fl.tc.TraceID, Parent: fl.tc.SpanID,
			Events: fl.log.Events(),
		})
	}
}

// traceStore retains the most recent completed flights' span batches,
// keyed by request id, bounded FIFO. It serves trace assembly, not
// archival: the coordinator fetches a batch within moments of the
// response, so a few hundred entries of slack absorbs any fetch lag.
type traceStore struct {
	mu    sync.Mutex
	cap   int
	m     map[string]obs.RequestTrace
	order []string
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{cap: capacity, m: make(map[string]obs.RequestTrace, capacity)}
}

func (t *traceStore) put(rt obs.RequestTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[rt.Req]; !ok {
		t.order = append(t.order, rt.Req)
		for len(t.order) > t.cap {
			delete(t.m, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.m[rt.Req] = rt
}

func (t *traceStore) get(req string) (obs.RequestTrace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt, ok := t.m[req]
	return rt, ok
}

// handleDebugTrace serves GET /debug/trace/{requestID}: the completed
// request's span batch plus its cross-process binding (trace id, parent
// coordinator span), JSON-shaped as obs.RequestTrace. 404 for unknown or
// evicted ids — the coordinator treats that as "worker had nothing to
// add", never an error.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, "bad-request", "GET only")
		return
	}
	rid := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if rid == "" || strings.Contains(rid, "/") {
		s.writeErr(w, http.StatusBadRequest, "bad-request", "want /debug/trace/{requestID}")
		return
	}
	rt, ok := s.traces.get(rid)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "bad-request", "no retained trace for "+rid)
		return
	}
	writeJSON(w, http.StatusOK, rt)
}

// mergeProfile folds one request's collector into the live aggregate for
// its program, keyed by the source hash stamped in cache.get.
func (s *Server) mergeProfile(prog *positdebug.Program, col *profile.Collector) {
	mod := prog.Instrumented()
	snap := col.Snapshot(mod, mod.Source, "pcl", 1, int64(s.cfg.ProfileSample))
	s.profMu.Lock()
	defer s.profMu.Unlock()
	prev, ok := s.profiles[snap.Key]
	if !ok {
		s.profiles[snap.Key] = snap
		return
	}
	// A merge failure would mean two programs share a source hash with
	// different instruction metadata; keep the existing aggregate.
	if merged, err := profile.Merge(prev, snap); err == nil {
		s.profiles[snap.Key] = merged
	}
}

// handleDebugProfile serves the live numerical-error profiles: JSON keyed
// by source hash, or the top-N text report with ?top=N.
func (s *Server) handleDebugProfile(w http.ResponseWriter, r *http.Request) {
	s.profMu.Lock()
	keys := make([]string, 0, len(s.profiles))
	for k := range s.profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if n, _ := strconv.Atoi(r.URL.Query().Get("top")); n > 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, k := range keys {
			if err := s.profiles[k].WriteTop(w, n); err != nil {
				break
			}
			fmt.Fprintln(w)
		}
		s.profMu.Unlock()
		return
	}
	out := make(map[string]*profile.Profile, len(s.profiles))
	for _, k := range keys {
		out[k] = s.profiles[k]
	}
	s.profMu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
