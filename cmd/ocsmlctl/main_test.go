package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ocsml/internal/admin"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

// startCluster stands up an in-process 3-node cluster with an admin
// server, returning it and the admin address the CLI should dial.
func startCluster(t *testing.T) (*transport.Cluster, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := transport.NewCluster(transport.ClusterConfig{
		N:       3,
		Seed:    5,
		Datadir: dir,
		Opt: core.Options{
			Interval: des.Duration(time.Hour), // CLI-triggered rounds only
			Timeout:  60 * des.Duration(time.Millisecond),
			SkipREQ:  true,
		},
		Reliable: true,
		Workload: workload.Config{
			Pattern:  workload.UniformRandom,
			Steps:    1 << 30,
			Think:    2 * des.Duration(time.Millisecond),
			MsgBytes: 128,
		},
		Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := admin.NewServer(admin.Config{
		Nodes: c.Nodes, Registry: c.Metrics, Datadir: dir, N: 3,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		srv.Close()
		c.Stop()
	})
	return c, srv.Addr()
}

// runCtl invokes the CLI's run with captured output.
func runCtl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestStatusHuman(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	_, addr := startCluster(t)
	code, out, errb := runCtl(t, "-node", addr, "status")
	// The nodes have only just started dialling each other.
	for i := 0; i < 100 && code == 0 && strings.Count(out, "2/2 up") < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		code, out, errb = runCtl(t, "-node", addr, "status")
	}
	if code != 0 {
		t.Fatalf("status exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"ID", "EPOCH", "P0", "P1", "P2", "2/2 up"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestStatusJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	_, addr := startCluster(t)
	code, out, errb := runCtl(t, "-node", addr, "-json", "status")
	if code != 0 {
		t.Fatalf("status exit %d, stderr: %s", code, errb)
	}
	var resp struct {
		Nodes []struct {
			Status *nodeStatus `json:"status"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, out)
	}
	if len(resp.Nodes) != 3 {
		t.Fatalf("%d nodes, want 3", len(resp.Nodes))
	}
}

// TestCheckpointManifestRecoveryMetrics drives the full operator loop
// the README documents: trigger a round, wait for it to reach the
// manifests, read recovery state and scrape metrics.
func TestCheckpointManifestRecoveryMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	c, addr := startCluster(t)

	code, out, errb := runCtl(t, "-node", addr, "checkpoint")
	if code != 0 {
		t.Fatalf("checkpoint exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "triggered") {
		t.Fatalf("checkpoint output:\n%s", out)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		code, out, _ = runCtl(t, "-node", addr, "manifest")
		if code == 0 && strings.Contains(out, "last complete  1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round never reached the manifests:\n%s", out)
		}
		time.Sleep(50 * time.Millisecond)
	}

	code, out, errb = runCtl(t, "-node", addr, "recovery")
	if code != 0 {
		t.Fatalf("recovery exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "last line  -1") || strings.Contains(out, "ms") {
		t.Fatalf("recovery output (no rollback expected):\n%s", out)
	}
	c.Kill(2)
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	_, out, _ = runCtl(t, "-node", addr, "recovery")
	for _, want := range []string{"last line  1", "last reopen ", "last handshake ", "last restart "} {
		if !strings.Contains(out, want) {
			t.Fatalf("recovery output after a recovery missing %q:\n%s", want, out)
		}
	}

	code, out, errb = runCtl(t, "-node", addr, "metrics")
	if code != 0 {
		t.Fatalf("metrics exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"# TYPE ocsml_ckpt_finalized_total counter",
		"ocsml_admin_requests_total",
		"ocsml_wire_app_frames_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, out)
		}
	}
}

func TestUnreachableNodeExitsOne(t *testing.T) {
	code, _, errb := runCtl(t, "-node", "127.0.0.1:1", "-timeout", "500ms", "status")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb)
	}
	if errb == "" {
		t.Fatal("no error message for unreachable node")
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCtl(t); code != 2 {
		t.Fatalf("no command: exit %d, want 2", code)
	}
	if code, _, errb := runCtl(t, "frobnicate"); code != 2 || !strings.Contains(errb, "unknown command") {
		t.Fatalf("unknown command: exit %d stderr %q, want 2", code, errb)
	}
	if code, _, _ := runCtl(t, "-bogus-flag", "status"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestFormatRuns(t *testing.T) {
	for _, tc := range []struct {
		seqs []int
		want string
	}{
		{nil, "none"},
		{[]int{7}, "7"},
		{[]int{1, 2, 3, 4}, "1-4"},
		{[]int{1, 2, 3, 5, 6, 9}, "1-3,5-6,9"},
	} {
		if got := formatRuns(tc.seqs); got != tc.want {
			t.Errorf("formatRuns(%v) = %q, want %q", tc.seqs, got, tc.want)
		}
	}
}
