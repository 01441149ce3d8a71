package chaos

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"positdebug/internal/server"
)

// Worker is one orchestrated pdserve instance behind a chaos proxy: the
// proxy URL is its stable fleet identity, the backend process can be
// killed (connections severed, dials refused) and restarted on a fresh
// port without the fleet roster noticing an address change.
type Worker struct {
	// Server is the live pdserve core (nil while killed).
	Server *server.Server
	// Proxy fronts the worker; fleet members dial Proxy.URL().
	Proxy *Proxy

	cfg server.Config
	hs  *http.Server
	ln  net.Listener
}

// NewWorker starts a pdserve worker behind a fresh chaos proxy. The
// proxy's fault rolls are seeded with seed. cfg.Metrics is dropped, so
// each (re)start counts into its own registry (server.New makes one).
func NewWorker(cfg server.Config, seed int64) (*Worker, error) {
	w := &Worker{cfg: cfg}
	w.cfg.Metrics = nil
	if err := w.start(); err != nil {
		return nil, err
	}
	w.Proxy = NewProxy("http://"+w.ln.Addr().String(), seed)
	return w, nil
}

// start boots the backend http.Server on a fresh port. A raw http.Server
// (not server.Serve) so Kill can sever connections instantly — graceful
// drain is exactly what a chaos kill must NOT do.
func (w *Worker) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.Server = server.New(w.cfg)
	w.ln = ln
	w.hs = &http.Server{Handler: w.Server.Handler()}
	go w.hs.Serve(ln)
	return nil
}

// Kill destroys the backend process-equivalent: every open connection is
// severed mid-flight and every later dial is refused. The proxy stays up,
// answering 502 for forwards — the fleet sees a dead-but-addressable
// worker, the realistic kill -9 shape.
func (w *Worker) Kill() {
	if w.hs == nil {
		return
	}
	w.hs.Close() // closes listener and all active connections
	w.hs = nil
	w.Server = nil
}

// Restart boots a fresh backend (new port, cold compile cache, fresh
// metrics) and retargets the proxy at it — a crashed worker coming back
// under its old fleet identity.
func (w *Worker) Restart() error {
	if w.hs != nil {
		w.Kill()
	}
	if err := w.start(); err != nil {
		return err
	}
	w.Proxy.SetTarget("http://" + w.ln.Addr().String())
	return nil
}

// URL is the worker's fleet identity: the chaos proxy's address.
func (w *Worker) URL() string { return w.Proxy.URL() }

// Close tears the worker and its proxy down.
func (w *Worker) Close() {
	w.Kill()
	w.Proxy.Close()
}

// Fleet is a set of chaos-orchestrated workers.
type Fleet struct {
	Workers []*Worker
}

// NewFleet starts n workers behind proxies with per-worker derived seeds.
func NewFleet(n int, cfg server.Config, seed int64) (*Fleet, error) {
	f := &Fleet{}
	for i := 0; i < n; i++ {
		w, err := NewWorker(cfg, seed+int64(i)*7919)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("chaos: starting worker %d: %w", i, err)
		}
		f.Workers = append(f.Workers, w)
	}
	return f, nil
}

// URLs lists the fleet's proxy URLs in worker order.
func (f *Fleet) URLs() []string {
	urls := make([]string, len(f.Workers))
	for i, w := range f.Workers {
		urls[i] = w.URL()
	}
	return urls
}

// Close tears the whole fleet down.
func (f *Fleet) Close() {
	for _, w := range f.Workers {
		w.Close()
	}
}

// TotalCounts sums injected-fault counters across the fleet's proxies.
func (f *Fleet) TotalCounts() Counts {
	var t Counts
	for _, w := range f.Workers {
		c := w.Proxy.Counts()
		t.Forwarded += c.Forwarded
		t.Latency += c.Latency
		t.Errors += c.Errors
		t.Resets += c.Resets
		t.Truncates += c.Truncates
		t.Blackholes += c.Blackholes
	}
	return t
}

// DefaultWorkerConfig is the pdserve shape chaos tests run: generous
// timeouts (the fault injection supplies the adversity).
func DefaultWorkerConfig() server.Config {
	return server.Config{DefaultTimeout: 30 * time.Second}
}
