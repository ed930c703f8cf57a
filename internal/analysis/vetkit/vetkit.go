// Package vetkit is a small, dependency-free analysis framework modeled
// on golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package (a Pass) and reports Diagnostics. The repository
// deliberately has no external dependencies, so cmd/ocsmlvet cannot use
// the real go/analysis multichecker; vetkit reimplements the slice of it
// the ocsml analyzers need on top of go/parser and go/types alone.
//
// The API mirrors go/analysis closely enough that porting an analyzer to
// the upstream framework is mechanical: Analyzer{Name, Doc, Run},
// Pass{Fset, Files, Pkg, TypesInfo, Report}, Diagnostic{Pos, Message}.
//
// # Directives
//
// The analyzers communicate with the code they check through
// machine-readable comments of the form
//
//	//ocsml:<name> [argument or reason]
//
// placed on the flagged line, on the line directly above it, or in the
// doc comment of the declaration. The Directives index (directives.go)
// collects every such comment once per program so analyzers share one
// parse. Each analyzer declares the directive names it reads
// (Analyzer.Directives), and UnknownDirectives reports any other name,
// so a misspelled directive is a finding rather than a silent no-op.
package vetkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a name, a doc string, and a Run
// function applied to every package under analysis.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Directives lists the //ocsml: names the analyzer reads.
	Directives []string
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dir is the directory the package was loaded from.
	Dir string

	// Program exposes the whole-program view: every package the loader
	// resolved from source plus the shared directive index.
	Program *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos. Every finding fails the build.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by Run
}

// A Package is one source-loaded, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Fset    *token.FileSet
}

// Run applies every analyzer to every package and returns the combined
// diagnostics in deterministic order — sorted by (position, analyzer,
// message), with exact duplicates removed. Two analyzers flagging the
// same position therefore always print in the same order, and one
// finding reported through two packages prints once.
func Run(analyzers []*Analyzer, pkgs []*Package, program *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Dir:       pkg.Dir,
				Program:   program,
				report: func(d Diagnostic) {
					d.Analyzer = a.Name
					diags = append(diags, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return dedupe(diags), nil
}

// dedupe drops diagnostics identical to their predecessor in a sorted
// slice.
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Pos == diags[i-1].Pos && d.Analyzer == diags[i-1].Analyzer &&
			d.Message == diags[i-1].Message {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ---- directives ----

// directivePrefix introduces every machine-readable comment vetkit
// understands.
const directivePrefix = "ocsml:"

// A Directive is one parsed //ocsml:<name> comment.
type Directive struct {
	Name string // e.g. "wallclock"
	Arg  string // remainder of the line, trimmed (reason or argument)
}

// FileDirectives extracts every //ocsml: directive in the file, keyed by
// the line the comment occupies. Most analyzers should use the shared
// Directives index (Program.Directives) instead of re-scanning files.
func FileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := map[int][]Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], d)
		}
	}
	return out
}

// CommentGroupHas reports whether a doc comment group contains the named
// directive (used for declarations, where the directive lives in the doc
// comment rather than on the statement line).
func CommentGroupHas(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if dir, ok := parseDirective(c); ok && dir.Name == name {
			return true
		}
	}
	return false
}

// UnknownDirectives returns the check ocsmlvet runs beside the given
// analyzers: it reports every //ocsml: comment whose name none of them
// declares in Directives. Without it a misspelled directive (a
// guardedby typo) switches a check off with no finding, and a retired
// one lingers unseen.
func UnknownDirectives(analyzers []*Analyzer) *Analyzer {
	known := map[string]bool{}
	var names []string
	for _, a := range analyzers {
		for _, name := range a.Directives {
			known[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return &Analyzer{
		Name: "directives",
		Doc:  "every //ocsml: directive is one a registered analyzer reads",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if dir, ok := parseDirective(c); ok && !known[dir.Name] {
							pass.Reportf(c.Pos(), "unknown directive //ocsml:%s: no analyzer reads it (known: %s)",
								dir.Name, strings.Join(names, ", "))
						}
					}
				}
			}
			return nil
		},
	}
}

// PathHasSuffix reports whether an import path ends with the given
// slash-separated suffix on a path-component boundary: "internal/des"
// matches "ocsml/internal/des" but not "ocsml/internal/designer".
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}
