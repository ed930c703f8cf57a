package main

// Control-plane integration test: three real ocsmld daemons on
// localhost TCP, each with -admin-addr, driven end to end by the real
// ocsmlctl binary — trigger a checkpoint round through the admin API,
// poll status until it finalizes everywhere, scrape /metrics and assert
// the cross-package series are present, then SIGTERM the daemons and
// require clean (exit 0) shutdowns through the graceful-stop path.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildOcsmlctl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ocsmlctl")
	cmd := exec.Command("go", "build", "-o", bin, "ocsml/cmd/ocsmlctl")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ocsmlctl: %v\n%s", err, out)
	}
	return bin
}

// ctlJSON runs ocsmlctl -json <cmd> against one daemon and decodes the
// response into out; returns the raw output for error reporting.
func ctlJSON(t *testing.T, bin, addr, command string, out any) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, "-node", addr, "-json", "-timeout", "5s", command)
	raw, err := cmd.Output()
	if err != nil {
		var stderr string
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		return string(raw), fmt.Errorf("ocsmlctl %s: %v\n%s", command, err, stderr)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return string(raw), fmt.Errorf("ocsmlctl %s: decoding: %v", command, err)
		}
	}
	return string(raw), nil
}

func TestDaemonControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	daemon := buildOcsmld(t)
	ctl := buildOcsmlctl(t)
	datadir := t.TempDir()
	const n = 3
	meshAddrs := freeAddrs(t, n)
	adminAddrs := freeAddrs(t, n)
	peers := strings.Join(meshAddrs, ",")

	// An hour-long checkpoint interval: the only rounds this cluster
	// runs are the ones ocsmlctl triggers, so every durable seq and line
	// below is attributable to the admin API.
	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(daemon,
			"-id", fmt.Sprint(i), "-peers", peers, "-datadir", datadir,
			"-admin-addr", adminAddrs[i],
			"-seed", "23", "-steps", "1000000", // effectively endless
			"-interval", "1h", "-timeout", "60ms",
			"-run-for", "120s",
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting P%d: %v", i, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	// Wait for every daemon's control plane to come up and report ready.
	type statusResp struct {
		Nodes []struct {
			Status *struct {
				ID          int `json:"id"`
				Csn         int `json:"csn"`
				DurableSeq  int `json:"durableSeq"`
				DurableLine int `json:"durableLine"`
				Peers       []struct {
					Connected bool `json:"connected"`
				} `json:"peers"`
			} `json:"status"`
			Error string `json:"error"`
		} `json:"nodes"`
	}
	waitStatus := func(addr string, ok func(statusResp) bool, what string, timeout time.Duration) statusResp {
		t.Helper()
		deadline := time.Now().Add(timeout)
		var last string
		for {
			var st statusResp
			raw, err := ctlJSON(t, ctl, addr, "status", &st)
			if err == nil && ok(st) {
				return st
			}
			last = raw
			if err != nil {
				last = err.Error()
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s did not hold within %v on %s; last: %s", what, timeout, addr, last)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	for _, addr := range adminAddrs {
		waitStatus(addr, func(st statusResp) bool {
			return len(st.Nodes) == 1 && st.Nodes[0].Error == "" && st.Nodes[0].Status != nil
		}, "admin status", 20*time.Second)
	}

	// Trigger the round on P0's control plane: the CK_BGN fans out over
	// the mesh, so one trigger checkpoints the whole cluster.
	var ck struct {
		Triggered []struct {
			ID    int    `json:"id"`
			Csn   int    `json:"csn"`
			Error string `json:"error"`
		} `json:"triggered"`
	}
	if raw, err := ctlJSON(t, ctl, adminAddrs[0], "checkpoint", &ck); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if len(ck.Triggered) != 1 || ck.Triggered[0].Error != "" || ck.Triggered[0].Csn < 1 {
		t.Fatalf("checkpoint trigger: %+v", ck)
	}

	// Poll every daemon's status until each has heard the round durable on
	// all three processes: its line, from its peers' reports, not its disk.
	for _, addr := range adminAddrs {
		waitStatus(addr, func(st statusResp) bool {
			return len(st.Nodes) == 1 && st.Nodes[0].Status != nil &&
				st.Nodes[0].Status.DurableSeq >= 1 && st.Nodes[0].Status.DurableLine >= 1
		}, "triggered round durable and heard", 30*time.Second)
	}

	// Scrape each daemon's /metrics: series registered by transport,
	// core, fsstore and admin must all be present.
	for i, addr := range adminAddrs {
		out, err := exec.Command(ctl, "-node", addr, "metrics").Output()
		if err != nil {
			t.Fatalf("metrics scrape on P%d: %v", i, err)
		}
		text := string(out)
		for _, want := range []string{
			fmt.Sprintf(`ocsml_ckpt_finalized_total{proc="%d"}`, i), // internal/core
			"ocsml_wire_app_frames_total",                           // internal/transport
			"ocsml_fsstore_finalized_total",                         // internal/fsstore
			"ocsml_admin_requests_total",                            // internal/admin
			"ocsml_events_total",                                    // free-form namespace
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("P%d metrics missing %q:\n%s", i, want, text)
			}
		}
	}

	// Graceful shutdown: SIGTERM routes through admin drain + storage
	// drain; every daemon must exit 0.
	for i, p := range procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("terminating P%d: %v", i, err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			t.Fatalf("P%d exit: %v", i, err)
		}
		procs[i] = nil
	}
}
