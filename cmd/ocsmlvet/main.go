// Command ocsmlvet is the repository's analysis suite: three custom
// analyzers that mechanically enforce the invariants the runtime
// depends on but the compiler cannot see.
//
//	wireexhaustive     every //ocsml:wirepayload type has an encoder, a
//	                   decoder, and a checked-in fuzz seed; control tags
//	                   fit MaxCtlTag and do not collide
//	detclean           deterministic packages stay a pure function of the
//	                   seed (no wall clock, no global rand, no map-order
//	                   dependent iteration); wall-clock reads elsewhere
//	                   carry //ocsml:wallclock
//	lockdiscipline     *Locked functions are called with the lock held;
//	                   //ocsml:guardedby fields are accessed under their
//	                   mutex
//
// Beside them it reports every //ocsml: directive that none of the
// three reads, so a misspelled directive cannot switch a check off
// unseen. Goroutine ownership and hot-path allocation freedom are not
// argued here: the race detector (make race) and the per-payload
// allocation gate (internal/wire TestEveryPayloadZeroAlloc) execute them.
//
// Usage:
//
//	ocsmlvet [-list] [-json] [-tags tag,list] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit
// status is 1 when any diagnostic is reported, 2 on a load error.
// Diagnostics print in deterministic (file, line, column, analyzer)
// order with exact duplicates removed; -json emits one JSON object per
// finding, one per line, for tooling. -tags adds build tags to file
// matching (the soak harness files are analyzed with -tags soak). An
// accepted finding is suppressed where it occurs, with the analyzer's
// inline //ocsml:* directive and its reason.
//
// The suite is wired into `make lint` and CI; a finding is a build
// failure, not advice. The analyzers are stdlib-only (go/parser +
// go/types), so the tool builds in the dependency-free repository; the
// same analyzers would port mechanically to a golang.org/x/tools
// go/analysis multichecker (and `go vet -vettool`) where that
// dependency is available.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ocsml/internal/analysis/detclean"
	"ocsml/internal/analysis/lockdiscipline"
	"ocsml/internal/analysis/vetkit"
	"ocsml/internal/analysis/wireexhaustive"
	"ocsml/internal/wire"
)

var analyzers = []*vetkit.Analyzer{
	wireexhaustive.Analyzer,
	detclean.Analyzer,
	lockdiscipline.Analyzer,
}

// finding is the -json wire format: one object per diagnostic, one per
// line, matching the GitHub Actions problem matcher in
// .github/problem-matchers/ocsmlvet.json, whose severity group every
// finding fills with the constant "error".
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

const severity = "error"

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON objects, one per line")
	tags := flag.String("tags", "", "comma-separated build tags for file matching")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, modPath, err := vetkit.ModuleLoader(cwd)
	if err != nil {
		fatal(err)
	}
	if *tags != "" {
		loader.SetBuildTags(strings.Split(*tags, ","))
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(modPath, patterns)
	if err != nil {
		fatal(err)
	}
	var pkgs []*vetkit.Package
	for _, path := range paths {
		pkg, err := loader.LoadPackage(path)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", path, err))
		}
		pkgs = append(pkgs, pkg)
	}
	program := vetkit.NewProgram(loader.Packages)

	checks := append([]*vetkit.Analyzer{vetkit.UnknownDirectives(analyzers)}, analyzers...)
	diags, err := vetkit.Run(checks, pkgs, program)
	if err != nil {
		fatal(err)
	}

	var findings []finding
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		findings = append(findings, finding{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Severity: severity, Message: d.Message,
		})
	}

	// Fuzz-corpus completeness: wireexhaustive's dynamic half. Every
	// registered payload kind must have at least one decodable seed
	// checked in, so the fuzzer actually exercises each codec arm.
	if wirePkg, ok := loader.Packages[modPath+"/internal/wire"]; ok {
		corpus := filepath.Join(wirePkg.Dir, "testdata", "fuzz", "FuzzWireRoundTrip")
		want := append(wireexhaustive.PayloadNames(program), "nil")
		missing, err := wireexhaustive.CheckCorpus(corpus, decodePayloadKind, want)
		if err != nil {
			fatal(err)
		}
		for _, kind := range missing {
			findings = append(findings, finding{
				File: corpus, Line: 1, Col: 1, Analyzer: "wireexhaustive",
				Severity: severity,
				Message:  fmt.Sprintf("payload kind %s has no decodable seed in the checked-in fuzz corpus (regenerate with WIRE_REGEN_CORPUS=1 go test ./internal/wire)", kind),
			})
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonOut {
			if err := enc.Encode(f); err != nil {
				fatal(err)
			}
		} else {
			fmt.Printf("%s:%d:%d: %s: %s: %s\n", f.File, f.Line, f.Col, f.Severity, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// decodePayloadKind classifies one corpus frame with the real decoder.
func decodePayloadKind(frame []byte) (string, bool) {
	e, err := wire.Decode(frame)
	if err != nil {
		return "", false
	}
	return wire.PayloadKind(e.Payload), true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocsmlvet:", err)
	os.Exit(2)
}
