package main

// Multi-OS-process restart integration tests: three real ocsmld daemons
// on localhost TCP. One is SIGKILLed mid-run and restarted with -recover —
// it must drive the wire-level recovery handshake to completion; or all
// stop and restart from the datadir with -resume. Either way the cluster
// must then finalize new global checkpoints past the line.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
)

// freeAddrs reserves n distinct localhost ports by binding and closing
// listeners. The window between Close and the daemons' rebind is racy in
// principle, but ephemeral-port reuse on loopback makes it reliable in
// practice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func buildOcsmld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ocsmld")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemons is a cluster of three real ocsmld OS processes on one datadir.
type daemons struct {
	t                   *testing.T
	bin, datadir, peers string
	procs               [3]*exec.Cmd
}

func newDaemons(t *testing.T) *daemons {
	t.Helper()
	addrs := freeAddrs(t, 3)
	d := &daemons{
		t: t, bin: buildOcsmld(t), datadir: t.TempDir(),
		peers: addrs[0] + "," + addrs[1] + "," + addrs[2],
	}
	t.Cleanup(func() {
		for _, p := range d.procs {
			if p != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	})
	return d
}

// spawn starts (or restarts) daemon id on an effectively endless workload.
func (d *daemons) spawn(id int, extra ...string) {
	d.t.Helper()
	args := append([]string{
		"-id", fmt.Sprint(id), "-peers", d.peers, "-datadir", d.datadir,
		"-seed", "17", "-steps", "1000000",
		"-interval", "150ms", "-timeout", "60ms",
		"-run-for", "120s",
	}, extra...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		d.t.Fatalf("starting P%d: %v", id, err)
	}
	d.procs[id] = cmd
}

// waitLine polls until the durable line reaches want and returns it.
// fsstore.LastCompleteSeq reads manifests only — safe to poll a datadir
// with live writers.
func (d *daemons) waitLine(want int) int {
	d.t.Helper()
	const timeout = 45 * time.Second
	deadline := time.Now().Add(timeout)
	for {
		line, err := fsstore.LastCompleteSeq(d.datadir, len(d.procs))
		if err == nil && line >= want {
			return line
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("durable line %d (err=%v), want >= %d within %v", line, err, want, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// terminate shuts the cluster down gracefully: every daemon exits 0 on
// SIGTERM.
func (d *daemons) terminate() {
	d.t.Helper()
	for i, p := range d.procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			d.t.Fatalf("terminating P%d: %v", i, err)
		}
	}
	for i, p := range d.procs {
		if err := p.Wait(); err != nil {
			d.t.Fatalf("P%d exit: %v", i, err)
		}
		d.procs[i] = nil
	}
}

// validateAbove reloads every process's store and checks that its durable
// checkpoints reach past line and that every durable record
// replay-validates: folding the logged messages over the restored state
// reproduces the fold recorded at finalization.
func (d *daemons) validateAbove(line int) {
	d.t.Helper()
	var common []int // the seqs every reloaded store holds
	for p := range d.procs {
		s, err := fsstore.Open(d.datadir, p, len(d.procs))
		if err != nil {
			d.t.Fatal(err)
		}
		recs, err := s.LoadAll()
		if err != nil {
			d.t.Fatal(err)
		}
		var seqs []int
		for _, r := range recs {
			if !r.Replays() {
				d.t.Fatalf("P%d seq %d: replay fold %#x != CFE fold %#x", p, r.Seq, checkpoint.FoldLog(r.Fold, r.Log), r.CFEFold)
			}
			seqs = append(seqs, r.Seq)
		}
		if p == 0 {
			common = seqs
		} else {
			common = fsstore.IntersectSeqs(common, seqs)
		}
	}
	if len(common) == 0 || common[len(common)-1] <= line {
		d.t.Fatalf("reloaded stores share seqs %v, want one above %d", common, line)
	}
}

func TestDaemonClusterRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	d := newDaemons(t)
	for i := range d.procs {
		d.spawn(i)
	}
	d.waitLine(2)

	// Crash P1 hard: no cleanup, no goodbye — only its datadir survives.
	const victim = 1
	if err := d.procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.procs[victim].Wait()
	d.procs[victim] = nil
	time.Sleep(100 * time.Millisecond) // let in-flight traffic hit the dead socket

	line, err := fsstore.LastCompleteSeq(d.datadir, len(d.procs))
	if err != nil {
		t.Fatal(err)
	}

	// Restart the victim with -recover: it coordinates the handshake,
	// the survivors roll back, and the cluster must advance past the
	// line again.
	d.spawn(victim, "-recover")
	d.waitLine(line + 1)
	d.terminate()
	d.validateAbove(line)
}

// TestDaemonClusterColdRestart is the manual restart path: the whole
// cluster stops, and every daemon comes back with -resume L, L being the
// durable line the datadir holds. Each truncates its store above L and
// refills its checkpoint store from it, the protocol continues from the
// last record it finds there, and the sequence numbers go on past L.
func TestDaemonClusterColdRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	d := newDaemons(t)
	for i := range d.procs {
		d.spawn(i)
	}
	d.waitLine(2)
	d.terminate()

	line, err := fsstore.LastCompleteSeq(d.datadir, len(d.procs))
	if err != nil || line < 2 {
		t.Fatalf("durable line after the stop = %d, %v", line, err)
	}
	for i := range d.procs {
		d.spawn(i, "-resume", fmt.Sprint(line))
	}
	d.waitLine(line + 1)
	d.terminate()
	d.validateAbove(line)
	for p := range d.procs {
		m, err := fsstore.ReadManifest(d.datadir, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, seq := range m.Seqs {
			if seq != m.Seqs[0]+i {
				t.Fatalf("P%d manifest %v has a gap", p, m.Seqs)
			}
		}
		if last := m.Seqs[len(m.Seqs)-1]; last <= line {
			t.Fatalf("P%d manifest ends at %d, want above the resume line %d", p, last, line)
		}
	}
}

// TestDaemonDurableSeqOnOwnDatadir: three daemons, each on its own
// -datadir, SIGTERM'd once every store holds a durable checkpoint. None
// can read the others' manifests, so each prints its own last durable
// seq, read from its store in memory, and says that the line needs all
// three: a real seq, the one its store holds after the exit, where a scan
// of its -datadir for all N manifests could only find -1.
func TestDaemonDurableSeqOnOwnDatadir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n = 3
	bin, addrs := buildOcsmld(t), freeAddrs(t, n)
	var dirs [n]string
	var outs [n]bytes.Buffer
	var procs [n]*exec.Cmd
	for i := range procs {
		dirs[i] = t.TempDir()
		procs[i] = exec.Command(bin,
			"-id", fmt.Sprint(i), "-peers", strings.Join(addrs, ","), "-datadir", dirs[i],
			"-seed", "17", "-steps", "1000000",
			"-interval", "150ms", "-timeout", "60ms",
			"-run-for", "120s",
		)
		procs[i].Stdout, procs[i].Stderr = &outs[i], os.Stderr
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer procs[i].Process.Kill()
	}
	deadline := time.Now().Add(45 * time.Second)
	for p := 0; p < n; p++ {
		for {
			m, err := fsstore.ReadManifest(dirs[p], p)
			if err == nil && m.LastSeq() >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("P%d: no durable checkpoint within 45s (%v)", p, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	for i, p := range procs {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("terminating P%d: %v", i, err)
		}
	}
	for p, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("P%d exit: %v", p, err)
		}
		m, err := fsstore.ReadManifest(dirs[p], p)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("durable S_k         unknown: the line needs all %d processes (P%d durable to seq %d)", n, p, m.LastSeq())
		if !strings.Contains(outs[p].String(), want) {
			t.Fatalf("P%d's report lacks %q:\n%s", p, want, outs[p].String())
		}
	}
}
