package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ocsml/internal/analysis/vetkit"
	"ocsml/internal/analysis/vetkit/vettest"
)

// run executes the built tool from the module root and returns its
// standard output, standard error and exit status.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s %v: %v", bin, args, err)
	}
	return out.String(), errOut.String(), exit
}

// TestToolOverModule drives the real binary: the module vets clean with
// nothing but inline directives to suppress findings, the suite is the
// three analyzers, and the flags that served the deleted model
// extractor, baseline file, SARIF writer and fix engine are gone.
func TestToolOverModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and type-checks the whole module")
	}
	bin := filepath.Join(t.TempDir(), "ocsmlvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	if _, err := os.Stat(filepath.Join("..", "..", ".ocsmlvet-baseline.json")); err == nil {
		t.Error("a baseline file is checked in again; accepted findings carry inline //ocsml: directives")
	}
	if stdout, stderr, exit := run(t, bin, "./..."); exit != 0 {
		t.Errorf("ocsmlvet ./... exits %d\n%s%s", exit, stdout, stderr)
	}

	stdout, _, exit := run(t, bin, "-list")
	if exit != 0 {
		t.Fatalf("-list exits %d", exit)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "wireexhaustive detclean lockdiscipline"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names\n got %s\nwant %s", got, want)
	}

	for _, flag := range []string{"-model", "-baseline=x.json", "-write-baseline", "-sarif", "-fix"} {
		_, stderr, exit := run(t, bin, flag)
		if exit != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q; want the flag package's unknown-flag error", flag, exit, stderr)
		}
	}
}

// TestUnknownDirectives: a directive none of the registered analyzers
// reads is a finding — a guardedby typo would otherwise switch the field
// out of lockdiscipline silently, and a directive of a deleted analyzer
// would linger unseen.
func TestUnknownDirectives(t *testing.T) {
	vettest.Run(t, "testdata", vetkit.UnknownDirectives(analyzers), "typo")
}
