package vetkit

import (
	"go/ast"
	"go/token"
	"sync"
)

// A Program is the whole-program view shared by every pass of one
// analysis run: every package the loader resolved from source, plus the
// directive index built lazily over them. Analyzers that need
// cross-package context (wireexhaustive's payload registry,
// lockdiscipline's guarded fields) read it; one ocsmlvet invocation
// builds the index exactly once no matter how many packages it checks.
type Program struct {
	// Packages maps import path to every source-loaded package.
	Packages map[string]*Package

	dirOnce sync.Once
	dirs    *Directives
}

// NewProgram wraps a loader's package map.
func NewProgram(pkgs map[string]*Package) *Program {
	return &Program{Packages: pkgs}
}

// Directives returns the shared //ocsml: directive index over every
// source-loaded file, built on first use. All packages of one program
// share a single FileSet, so one index answers position queries for
// every analyzer.
func (p *Program) Directives() *Directives {
	p.dirOnce.Do(func() {
		var fset *token.FileSet
		var files []*ast.File
		for _, pkg := range p.Packages {
			fset = pkg.Fset
			files = append(files, pkg.Files...)
		}
		if fset == nil {
			fset = token.NewFileSet()
		}
		p.dirs = NewDirectives(fset, files...)
	})
	return p.dirs
}
