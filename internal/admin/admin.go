// Package admin is the operator control plane of a running OCSML
// deployment: a small HTTP server that cmd/ocsmld embeds next to its
// transport nodes. It answers status, manifest and recovery queries,
// triggers tentative checkpoint rounds, and exposes the shared
// metrics.Registry in the Prometheus text format at /metrics.
//
// The server never reaches into protocol state directly — every read
// goes through Node.StatusSnapshot (a closure posted onto the node's
// event loop) and every durable read through fsstore.ReadManifest (a
// read-only scan of the segment logs that cannot disturb a live
// datadir). It is therefore
// safe to run against nodes in the middle of checkpoint rounds,
// rollbacks and restarts.
//
// Endpoints:
//
//	GET  /v1/status      per-node protocol snapshots + peer liveness
//	GET  /v1/manifest    durable manifests and the complete global seqs
//	GET  /v1/recovery    last committed line, fence epoch, replay counters, last recovery's phases
//	POST /v1/checkpoint  trigger a tentative checkpoint round
//	GET  /v1/healthz     liveness (the server itself is up)
//	GET  /v1/readyz      readiness (every local node answers a snapshot)
//	GET  /metrics        Prometheus text exposition of the registry
//	GET  /debug/pprof/   the runtime's profiles (net/http/pprof), e.g.
//	                     allocs for what a message costs the heap
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"strings"
	"time"

	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/transport"
)

// Config parameterizes the control-plane server.
type Config struct {
	// Nodes returns the locally hosted transport nodes (Cluster.Nodes),
	// called per request so a node replaced by Recover is observed.
	Nodes func() []*transport.Node
	// Registry is the shared metric registry served at /metrics.
	Registry *metrics.Registry
	// Datadir is the stable-storage root ("" disables /v1/manifest's
	// durable sections).
	Datadir string
	// N is the cluster size (manifest intersection spans all N procs,
	// not just the locally hosted ones).
	N int
}

const (
	// statusTimeout bounds each per-node snapshot or trigger. A node whose
	// loop cannot answer within it is reported as an error, not waited on.
	statusTimeout = 2 * time.Second
	// shutdownTimeout bounds the graceful drain in Close before in-flight
	// requests are cut off.
	shutdownTimeout = 2 * time.Second
)

// Server is the embedded control-plane HTTP server.
type Server struct {
	cfg Config
	srv *http.Server
	ln  net.Listener

	requests  *metrics.CounterVec
	writeErrs *metrics.Counter
}

// NewServer builds the server and registers its own metric series on
// the shared registry. Nothing listens until Start.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Nodes == nil {
		cfg.Nodes = func() []*transport.Node { return nil }
	}
	s := &Server{
		cfg: cfg,
		requests: cfg.Registry.MustCounterVec("ocsml_admin_requests_total",
			"Admin API requests served, by endpoint path.", "path"),
		writeErrs: cfg.Registry.MustCounter("ocsml_admin_response_errors_total",
			"Admin API responses whose body write failed (client gone)."),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/manifest", s.handleManifest)
	mux.HandleFunc("/v1/recovery", s.handleRecovery)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	s.srv = &http.Server{
		Handler: mux,
		// A peer that opens a connection and never sends a request must
		// not pin a handler goroutine across shutdown.
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Start binds addr (":0" picks a free port — tests use it) and serves
// in the background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("admin: %w", err)
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the normal Close path; anything else has
		// already surfaced to a client as a failed request.
		s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (useful after ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close drains in-flight requests for up to shutdownTimeout, then cuts
// stragglers off. It is safe to call before Start (a no-op) and leaves
// no goroutines behind — the leak checker of every test binary that
// embeds a Server holds it to that.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// statusResponse is GET /v1/status: one entry per locally hosted node.
type statusResponse struct {
	Nodes []nodeEntry `json:"nodes"`
}

// nodeEntry wraps a snapshot with the per-node error slot (a wedged or
// closing node yields an error entry, not a failed response — the
// operator still sees the healthy nodes).
type nodeEntry struct {
	Status *transport.NodeStatus `json:"status,omitempty"`
	Error  string                `json:"error,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/status").Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	var resp statusResponse
	for _, n := range s.cfg.Nodes() {
		st, err := n.StatusSnapshot(statusTimeout)
		if err != nil {
			resp.Nodes = append(resp.Nodes, nodeEntry{Error: err.Error()})
			continue
		}
		resp.Nodes = append(resp.Nodes, nodeEntry{Status: &st})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// manifestResponse is GET /v1/manifest: the durable truth of the
// datadir — what each process has finalized to disk and which global
// checkpoints S_k are complete across all N manifests.
type manifestResponse struct {
	Datadir string `json:"datadir"`
	N       int    `json:"n"`
	// Manifests has one entry per process, 0..N-1 (read-only, safe
	// against live writers).
	Manifests []fsstore.Manifest `json:"manifests"`
	// CompleteSeqs are the seqs present in every manifest, ascending.
	CompleteSeqs []int `json:"completeSeqs"`
	// LastComplete is the newest complete seq, -1 if none.
	LastComplete int `json:"lastComplete"`
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/manifest").Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.cfg.Datadir == "" {
		s.writeError(w, http.StatusNotFound, "no datadir configured; durable manifests unavailable")
		return
	}
	resp := manifestResponse{Datadir: s.cfg.Datadir, N: s.cfg.N, LastComplete: -1}
	for p := 0; p < s.cfg.N; p++ {
		m, err := fsstore.ReadManifest(s.cfg.Datadir, p)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		m.N = s.cfg.N // the log does not record it
		resp.Manifests = append(resp.Manifests, m)
		if p == 0 {
			resp.CompleteSeqs = append([]int(nil), m.Seqs...)
		} else {
			resp.CompleteSeqs = fsstore.IntersectSeqs(resp.CompleteSeqs, m.Seqs)
		}
	}
	if k := len(resp.CompleteSeqs); k > 0 {
		resp.LastComplete = resp.CompleteSeqs[k-1]
	} else {
		resp.CompleteSeqs = nil // reads null, as an empty intersection always has
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// recoveryResponse is GET /v1/recovery: where the last recovery round
// left the locally hosted nodes, plus the registry's recovery.* event
// counters.
type recoveryResponse struct {
	// Line is the highest committed rollback/resume line any local node
	// has executed (-1: none this incarnation).
	Line int `json:"line"`
	// Epoch is the highest fence epoch among the local nodes; frames
	// from older epochs are dropped on arrival.
	Epoch int `json:"epoch"`
	// Counters are the free-form "recovery.*" events (rollbacks,
	// replayed_msgs, dup_dropped, ...) accumulated since start.
	Counters map[string]int64 `json:"counters"`
	// Phases is what the last recovery this host coordinated spent where,
	// in transport.RecoveryPhaseNames order (absent: it coordinated none).
	Phases []recoveryPhase `json:"phases,omitempty"`
}

type recoveryPhase struct {
	Phase  string  `json:"phase"`
	LastMs float64 `json:"lastMs"`
}

func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/recovery").Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := recoveryResponse{Line: -1, Counters: map[string]int64{}}
	for _, n := range s.cfg.Nodes() {
		st, err := n.StatusSnapshot(statusTimeout)
		if err != nil {
			continue
		}
		if st.RecoveredLine > resp.Line {
			resp.Line = st.RecoveredLine
		}
		if st.Epoch > resp.Epoch {
			resp.Epoch = st.Epoch
		}
	}
	for name, v := range s.cfg.Registry.EventCounts() {
		if strings.HasPrefix(name, "recovery.") {
			resp.Counters[name] = v
		}
	}
	phases := transport.RecoveryPhases(s.cfg.Registry)
	for _, name := range transport.RecoveryPhaseNames {
		if sm := phases.With(name); sm.Count() > 0 {
			resp.Phases = append(resp.Phases, recoveryPhase{Phase: name, LastMs: sm.Last() * 1e3})
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// checkpointResponse is POST /v1/checkpoint: the post-trigger csn of
// each local node. A node already in a tentative round ignores the
// trigger (paper §3.4) and reports its unchanged csn.
type checkpointResponse struct {
	Triggered []checkpointEntry `json:"triggered"`
}

type checkpointEntry struct {
	ID    int    `json:"id"`
	Csn   int    `json:"csn"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/checkpoint").Inc()
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	nodes := s.cfg.Nodes()
	if len(nodes) == 0 {
		s.writeError(w, http.StatusServiceUnavailable, "no local nodes")
		return
	}
	var resp checkpointResponse
	failed := 0
	for _, n := range nodes {
		st, serr := n.StatusSnapshot(statusTimeout)
		id := -1
		if serr == nil {
			id = st.ID
		}
		csn, err := n.TriggerCheckpoint(statusTimeout)
		if err != nil {
			failed++
			resp.Triggered = append(resp.Triggered, checkpointEntry{ID: id, Csn: -1, Error: err.Error()})
			continue
		}
		resp.Triggered = append(resp.Triggered, checkpointEntry{ID: id, Csn: csn})
	}
	code := http.StatusOK
	if failed == len(nodes) {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/healthz").Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// client gone mid-response; nothing to durably undo
	if _, err := w.Write([]byte("ok\n")); err != nil {
		s.writeErrs.Inc()
	}
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/v1/readyz").Inc()
	for _, n := range s.cfg.Nodes() {
		if _, err := n.StatusSnapshot(statusTimeout); err != nil {
			s.writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// client gone mid-response; nothing to durably undo
	if _, err := w.Write([]byte("ready\n")); err != nil {
		s.writeErrs.Inc()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/metrics").Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// scrape aborted by the client; the next scrape re-reads everything
	if err := s.cfg.Registry.WritePrometheus(w); err != nil {
		s.writeErrs.Inc()
	}
}

// writeJSON writes a JSON response; an encode or write failure means
// the client is gone, which the write-error counter records.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// client gone mid-response; nothing to durably undo
	if err := enc.Encode(v); err != nil {
		s.writeErrs.Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.writeError(w, http.StatusMethodNotAllowed, "method not allowed; use "+allow)
}
