package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"ocsml/internal/fsstore"
)

// TestSpawnAllSigterm: a -spawn-all cluster stopped by SIGTERM mid-run
// takes the same graceful stop as a daemon — admin server closed, queued
// stable-storage writes drained, nodes closed — exits 0 and prints its
// report, leaving every store reopenable with no gap in its manifest and
// every manifested record loadable.
func TestSpawnAllSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real OS process")
	}
	const n = 3
	datadir := t.TempDir()
	var stdout bytes.Buffer
	cmd := exec.Command(buildOcsmld(t),
		"-spawn-all", "-n", fmt.Sprint(n), "-datadir", datadir,
		"-admin-addr", freeAddrs(t, 1)[0],
		"-seed", "31", "-steps", "1000000", // effectively endless
		"-interval", "150ms", "-timeout", "60ms",
		"-run-for", "120s",
	)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	deadline := time.Now().Add(45 * time.Second)
	for {
		if line, err := fsstore.LastCompleteSeq(datadir, n); err == nil && line >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable global checkpoint within 45s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	for _, want := range []string{"completed           false", "durable S_k"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, stdout.String())
		}
	}
	for p := 0; p < n; p++ {
		s, err := fsstore.Open(datadir, p, n)
		if err != nil {
			t.Fatalf("P%d reopen: %v", p, err)
		}
		seqs := s.Manifest().Seqs
		if len(seqs) == 0 {
			t.Fatalf("P%d manifest is empty", p)
		}
		for k, seq := range seqs {
			if seq != seqs[0]+k {
				t.Fatalf("P%d manifest %v has a gap", p, seqs)
			}
			if _, err := s.Load(seq); err != nil {
				t.Fatalf("P%d: manifest points at unloadable seq %d: %v", p, seq, err)
			}
		}
	}
}
