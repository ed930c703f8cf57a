// Command ocsmlvet is the repository's analysis suite: ten custom
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
//	fsyncorder         fsstore renames follow write→fsync→rename→dirsync
//	errflow            errors from the durability paths (Finalize,
//	                   WriteStable, fsync, rename) reach a return or a
//	                   counted metric; discards need //ocsml:errsink
//	piggybackcomplete  OnAppSend attaches the piggyback payload on every
//	                   path, OnDeliver consumes it before mutating
//	                   checkpoint state; baselines opt out with
//	                   //ocsml:nopiggyback
//	statemachine       every write to the //ocsml:state-annotated
//	                   checkpoint status field is a declared transition
//	loopowned          //ocsml:loopowned fields are read and written only
//	                   on their owning event-loop goroutine or in closures
//	                   posted to it (//ocsml:looppost, //ocsml:loopcontext)
//	quitpath           every spawned goroutine has a proven termination
//	                   path — a quit-channel select, a bounded loop, an
//	                   error return — or an //ocsml:daemon opt-out
//	allocfree          //ocsml:hotpath functions and everything they call
//	                   stay allocation-free; cold paths carry
//	                   //ocsml:alloc <why>
//
// Usage:
//
//	ocsmlvet [-list] [-json] [-sarif] [-fix] [-tags tag,list] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit
// status is 1 when any error-severity diagnostic is reported (warnings
// are advisory), 2 on a load error. Diagnostics print in deterministic
// (file, line, column, analyzer) order with exact duplicates removed;
// -json emits one JSON object per finding, one per line, for tooling,
// and -sarif emits a SARIF 2.1.0 log for GitHub code scanning with
// severity carried as the result level. -tags adds build tags to file
// matching (the soak harness files are analyzed with -tags soak).
//
// -fix applies the suggested fixes of mechanical diagnostics (a missing
// //ocsml:state table entry, a missing //ocsml:loopcontext assertion)
// to the source files in place, then reports what remains. An accepted
// finding is suppressed where it occurs, with the analyzer's inline
// //ocsml:* directive and its reason.
//
// The suite is wired into `make lint` and CI; an error finding is a
// build failure, not advice. The analyzers are stdlib-only (go/parser +
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

	"ocsml/internal/analysis/allocfree"
	"ocsml/internal/analysis/detclean"
	"ocsml/internal/analysis/errflow"
	"ocsml/internal/analysis/fsyncorder"
	"ocsml/internal/analysis/lockdiscipline"
	"ocsml/internal/analysis/loopowned"
	"ocsml/internal/analysis/piggybackcomplete"
	"ocsml/internal/analysis/quitpath"
	"ocsml/internal/analysis/statemachine"
	"ocsml/internal/analysis/vetkit"
	"ocsml/internal/analysis/wireexhaustive"
	"ocsml/internal/wire"
)

var analyzers = []*vetkit.Analyzer{
	wireexhaustive.Analyzer,
	detclean.Analyzer,
	lockdiscipline.Analyzer,
	fsyncorder.Analyzer,
	errflow.Analyzer,
	piggybackcomplete.Analyzer,
	statemachine.Analyzer,
	loopowned.Analyzer,
	quitpath.Analyzer,
	allocfree.Analyzer,
}

// finding is the -json wire format: one object per diagnostic, one per
// line, matching the GitHub Actions problem matcher in
// .github/problem-matchers/ocsmlvet.json. EndLine/EndCol are present
// when the diagnostic flags a range rather than a point.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
	EndLine  int    `json:"endLine,omitempty"`
	EndCol   int    `json:"endCol,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON objects, one per line")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log on stdout")
	fix := flag.Bool("fix", false, "apply suggested fixes to source files in place")
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
	modDir := loader.Roots[modPath]
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

	diags, err := vetkit.Run(analyzers, pkgs, program)
	if err != nil {
		fatal(err)
	}

	if *fix {
		_, remaining, err := applyFixes(loader, diags)
		if err != nil {
			fatal(err)
		}
		diags = remaining
	}

	var findings []finding
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		f := finding{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Severity: d.Severity.String(), Message: d.Message,
		}
		if d.End.IsValid() {
			end := loader.Fset.Position(d.End)
			f.EndLine, f.EndCol = end.Line, end.Column
		}
		findings = append(findings, f)
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
				Severity: vetkit.SevError.String(),
				Message:  fmt.Sprintf("payload kind %s has no decodable seed in the checked-in fuzz corpus (regenerate with WIRE_REGEN_CORPUS=1 go test ./internal/wire)", kind),
			})
		}
	}

	errors := 0
	for _, f := range findings {
		if f.Severity == "error" {
			errors++
		}
	}

	switch {
	case *sarifOut:
		if err := writeSARIF(os.Stdout, modDir, findings); err != nil {
			fatal(err)
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fatal(err)
			}
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s: %s\n", f.File, f.Line, f.Col, f.Severity, f.Analyzer, f.Message)
		}
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// applyFixes writes every suggested fix to disk and returns the
// diagnostics that were fixed and those that remain.
func applyFixes(loader *vetkit.Loader, diags []vetkit.Diagnostic) (fixed, remaining []vetkit.Diagnostic, err error) {
	plans, err := vetkit.PlanFixes(loader.Fset, diags)
	if err != nil {
		return nil, nil, err
	}
	applied := map[string]bool{} // by position+analyzer+message
	diagKey := func(d vetkit.Diagnostic) string {
		p := loader.Fset.Position(d.Pos)
		return fmt.Sprintf("%s:%d:%d:%s:%s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
	for _, ff := range plans {
		content, err := vetkit.ApplyFix(loader.Fset, ff)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(ff.Filename, content, 0o644); err != nil {
			return nil, nil, err
		}
		for _, d := range ff.Applied {
			applied[diagKey(d)] = true
		}
		fmt.Printf("fixed %s: %d edit(s)\n", ff.Filename, len(ff.Edits))
	}
	for _, d := range diags {
		if applied[diagKey(d)] {
			fixed = append(fixed, d)
		} else {
			remaining = append(remaining, d)
		}
	}
	return fixed, remaining, nil
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
