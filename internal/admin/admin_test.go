package admin

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

// testCluster stands up a 4-process TCP cluster whose checkpoint
// interval is effectively infinite — the only rounds are the ones the
// admin API triggers — plus an admin server on a free port. The
// workload is long enough to keep messages flowing for the duration of
// any test here.
func testCluster(t *testing.T, datadir string) (*transport.Cluster, *Server) {
	t.Helper()
	c, err := transport.NewCluster(transport.ClusterConfig{
		N:       4,
		Seed:    11,
		Datadir: datadir,
		Opt: core.Options{
			Interval: des.Duration(time.Hour), // admin-triggered rounds only
			Timeout:  60 * des.Duration(time.Millisecond),
			SkipREQ:  true,
		},
		Reliable: true,
		Workload: workload.Config{
			Pattern:  workload.UniformRandom,
			Steps:    1 << 30, // never finishes; the test stops the cluster
			Think:    2 * des.Duration(time.Millisecond),
			MsgBytes: 256,
		},
		Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Nodes: c.Nodes, Registry: c.Metrics})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		// The control plane drains before the mesh closes — same order
		// as the daemon's shutdown path.
		if err := srv.Close(); err != nil {
			t.Errorf("admin close: %v", err)
		}
		c.Stop()
	})
	return c, srv
}

func get(t *testing.T, srv *Server, path string) (int, []byte) {
	t.Helper()
	return do(t, srv, http.MethodGet, path)
}

func do(t *testing.T, srv *Server, method, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+srv.Addr()+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	return resp.StatusCode, body
}

// TestControlPlane is the end-to-end pass over every endpoint against a
// live cluster: health, readiness, status, a triggered checkpoint round
// observed through to the durable line every node hears, recovery state,
// and the Prometheus exposition.
func TestControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	c, srv := testCluster(t, dir)

	if code, body := get(t, srv, "/v1/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: code %d body %q", code, body)
	}
	if code, _ := get(t, srv, "/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz: code %d", code)
	}

	// Status: all 4 nodes answer, each seeing 3 peers.
	var st statusResponse
	code, body := get(t, srv, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status: code %d body %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status: %v\n%s", err, body)
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("status: %d nodes, want 4", len(st.Nodes))
	}
	for i, e := range st.Nodes {
		if e.Error != "" {
			t.Fatalf("status: node %d error %q", i, e.Error)
		}
		if e.Status.N != 4 || e.Status.Proto == "" {
			t.Fatalf("status: node %d malformed: %+v", i, e.Status)
		}
		if len(e.Status.Peers) != 3 {
			t.Fatalf("status: node %d has %d peers, want 3", i, len(e.Status.Peers))
		}
	}

	// Trigger a round and watch it to durable finalization: with the
	// hour-long interval, any progress of DurableSeq is attributable to
	// this POST alone.
	code, body = do(t, srv, http.MethodPost, "/v1/checkpoint")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: code %d body %s", code, body)
	}
	var ck checkpointResponse
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatalf("checkpoint: %v\n%s", err, body)
	}
	if len(ck.Triggered) != 4 {
		t.Fatalf("checkpoint: %d entries, want 4", len(ck.Triggered))
	}
	advanced := false
	for _, e := range ck.Triggered {
		if e.Error != "" {
			t.Fatalf("checkpoint: node %d error %q", e.ID, e.Error)
		}
		if e.Csn >= 1 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatalf("checkpoint: no node advanced its csn: %+v", ck.Triggered)
	}
	waitDurableLine(t, srv, 1, 15*time.Second)
	// No node hears a line its own store does not hold.
	st = statusResponse{}
	if _, body = get(t, srv, "/v1/status"); json.Unmarshal(body, &st) != nil {
		t.Fatalf("status: %s", body)
	}
	for _, e := range st.Nodes {
		if e.Status == nil || e.Status.DurableLine > e.Status.DurableSeq {
			t.Fatalf("status: a node hears a line above its own durable seq:\n%s", body)
		}
	}
	// The datadir scan that once answered this is gone.
	if code, _ := get(t, srv, "/v1/manifest"); code != http.StatusNotFound {
		t.Fatalf("/v1/manifest: code %d, want 404", code)
	}

	// Recovery: no rollbacks have happened, so the line is -1 and the
	// counters carry no rollback events.
	var rc recoveryResponse
	code, body = get(t, srv, "/v1/recovery")
	if code != http.StatusOK {
		t.Fatalf("recovery: code %d body %s", code, body)
	}
	if err := json.Unmarshal(body, &rc); err != nil {
		t.Fatalf("recovery: %v\n%s", err, body)
	}
	if rc.Line != -1 {
		t.Fatalf("recovery: line = %d, want -1 (no rollback happened)", rc.Line)
	}
	if rc.Counters["recovery.rollbacks"] != 0 || len(rc.Phases) != 0 {
		t.Fatalf("recovery: unexpected rollbacks or phases: %+v", rc)
	}

	// One kill and recovery later the endpoint says where it went and
	// what it spent on each stage, in stage order.
	c.Kill(1)
	line, err := c.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	rc = recoveryResponse{}
	if _, body = get(t, srv, "/v1/recovery"); json.Unmarshal(body, &rc) != nil || rc.Line != line || len(rc.Phases) != 3 {
		t.Fatalf("recovery after a recovery to line %d: %s", line, body)
	}
	for k, ph := range rc.Phases {
		if ph.Phase != transport.RecoveryPhaseNames[k] || ph.LastMs <= 0 {
			t.Fatalf("recovery: phase %d is %+v, want a positive %s", k, ph, transport.RecoveryPhaseNames[k])
		}
	}

	checkMetricsExposition(t, srv)
}

// waitDurableLine polls /v1/status until every node has heard a durable
// line of at least seq (the triggered round finalized cluster-wide).
func waitDurableLine(t *testing.T, srv *Server, seq int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, body := get(t, srv, "/v1/status")
		var st statusResponse
		if err := json.Unmarshal(body, &st); err == nil && len(st.Nodes) > 0 && slices.IndexFunc(st.Nodes, func(e nodeEntry) bool {
			return e.Status == nil || e.Status.DurableLine < seq
		}) < 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("triggered round did not reach durable seq %d within %v (last body: %s)", seq, timeout, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkMetricsExposition asserts the /metrics scrape carries series
// registered by at least four packages (transport, core, fsstore,
// admin, engine-free here) and at least ten distinct families.
func checkMetricsExposition(t *testing.T, srv *Server) {
	t.Helper()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	text := string(body)
	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
		}
	}
	if len(families) < 10 {
		t.Fatalf("metrics: %d families, want >= 10:\n%s", len(families), text)
	}
	// One representative family per registering package.
	for _, want := range []string{
		"ocsml_wire_app_frames_total",   // internal/transport
		"ocsml_ckpt_finalized_total",    // internal/core
		"ocsml_fsstore_finalized_total", // internal/fsstore
		"ocsml_admin_requests_total",    // internal/admin
		"ocsml_events_total",            // free-form counter namespace
		"ocsml_wire_piggyback_bytes_total",
		"ocsml_node_storage_queue",
		"ocsml_recovery_phase_seconds",
	} {
		if !families[want] {
			t.Fatalf("metrics: missing family %s; have %v", want, families)
		}
	}
	// The triggered round must be visible in the protocol series.
	if !strings.Contains(text, `ocsml_ckpt_finalized_total{proc="0"}`) {
		t.Fatalf("metrics: no finalization series for proc 0:\n%s", text)
	}
}

// TestMethodNotAllowed covers the write-path guards: checkpoint rejects
// GET, the read endpoints reject POST.
func TestMethodNotAllowed(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	_, srv := testCluster(t, t.TempDir())
	cases := []struct{ method, path string }{
		{http.MethodGet, "/v1/checkpoint"},
		{http.MethodPost, "/v1/status"},
		{http.MethodPost, "/v1/recovery"},
		{http.MethodPost, "/metrics"},
	}
	for _, c := range cases {
		if code, _ := do(t, srv, c.method, c.path); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: code %d, want 405", c.method, c.path, code)
		}
	}
}

// TestManifestWithoutDatadir: a diskless deployment has no durable seq
// and hears no durable line, so its status says -1 for both, and there is
// no manifest endpoint to answer: 404, not a crash or an empty 200.
func TestManifestWithoutDatadir(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	_, srv := testCluster(t, "")
	if code, _ := get(t, srv, "/v1/manifest"); code != http.StatusNotFound {
		t.Fatalf("manifest without datadir: code %d, want 404", code)
	}
	var st statusResponse
	code, body := get(t, srv, "/v1/status")
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil || len(st.Nodes) != 4 {
		t.Fatalf("status: code %d body %s", code, body)
	}
	for _, e := range st.Nodes {
		if e.Status == nil || e.Status.DurableSeq != -1 || e.Status.DurableLine != -1 {
			t.Fatalf("status without datadir: want durableSeq and durableLine -1:\n%s", body)
		}
	}
}

// TestCloseStopsServing: Close ends the Serve goroutine by closing its
// listener — after it, no request reaches this server. (leakcheck cannot
// see a goroutine parked in Accept, so this is that goroutine's witness.)
// The witness is the server's own request counter, not the address: the
// freed port may be rebound at once by another test binary running
// beside this one, and reaching that listener says nothing about this
// server.
func TestCloseStopsServing(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := srv.requests.With("/v1/healthz")
	if code, _ := do(t, srv, http.MethodGet, "/v1/healthz"); code != http.StatusOK || served.Value() != 1 {
		t.Fatalf("before Close: code %d, %d request(s) counted; want 200 and 1", code, served.Value())
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: time.Second}
	if resp, err := client.Get("http://" + addr + "/v1/healthz"); err == nil {
		resp.Body.Close()
	}
	if n := served.Value(); n != 1 {
		t.Fatalf("%s still serves after Close: %d requests counted, want 1", addr, n)
	}
}

// TestCloseBeforeStart: Close on a never-started server is a no-op.
func TestCloseBeforeStart(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
}

// TestCheckpointWithoutNodes: a server with no local nodes refuses the
// trigger with 503 so an operator script fails loudly.
func TestCheckpointWithoutNodes(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := do(t, srv, http.MethodPost, "/v1/checkpoint")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint without nodes: code %d body %s", code, body)
	}
}

// TestPprof: the runtime's profiles are served under /debug/pprof/ (an
// allocation profile of a running daemon is how the message path's heap
// cost is found), beside the /v1 routes, which answer as before.
func TestPprof(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/allocs?debug=1")
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("heap profile:")) {
		t.Fatalf("allocs profile: code %d, body %.40q", code, body)
	}
	for _, c := range []struct {
		path string
		code int
	}{
		{"/v1/healthz", http.StatusOK},
		{"/v1/manifest", http.StatusNotFound},
		{"/v1/nosuch", http.StatusNotFound},
	} {
		if code, _ := get(t, srv, c.path); code != c.code {
			t.Errorf("%s: code %d, want %d", c.path, code, c.code)
		}
	}
}
