package vetkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives is the shared //ocsml: comment index for one analysis run:
// it parses each file once and answers the question the analyzers all
// ask: "is position P covered by directive N?".
//
// Coverage follows the repository convention: a directive covers a
// position when it sits on the same line or on the line directly above
// (a comment on its own line annotating the statement below). For
// declarations the directive lives in the doc comment instead; use
// CommentGroupHas.
type Directives struct {
	fset   *token.FileSet
	byFile map[string]map[int][]Directive
}

// NewDirectives indexes the given files. All files must belong to fset.
func NewDirectives(fset *token.FileSet, files ...*ast.File) *Directives {
	d := &Directives{fset: fset, byFile: map[string]map[int][]Directive{}}
	d.Add(files...)
	return d
}

// Add indexes more files (idempotent per file).
func (d *Directives) Add(files ...*ast.File) {
	for _, f := range files {
		name := d.fset.Position(f.Pos()).Filename
		if _, ok := d.byFile[name]; ok {
			continue
		}
		d.byFile[name] = FileDirectives(d.fset, f)
	}
}

// Covering returns the directive of the given name covering pos: same
// line first, then the line directly above.
func (d *Directives) Covering(pos token.Pos, name string) (Directive, bool) {
	p := d.fset.Position(pos)
	lines := d.byFile[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, dir := range lines[line] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// Has reports whether a directive of the given name covers pos.
func (d *Directives) Has(pos token.Pos, name string) bool {
	_, ok := d.Covering(pos, name)
	return ok
}

// FileHas reports whether the file containing pos declares a directive
// of the given name anywhere — file-scoped switches like detclean's
// //ocsml:realtime.
func (d *Directives) FileHas(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	for _, dirs := range d.byFile[p.Filename] {
		for _, dir := range dirs {
			if dir.Name == name {
				return true
			}
		}
	}
	return false
}

// parseDirective parses one //ocsml:<name> [arg] comment.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	body := strings.TrimPrefix(text, directivePrefix)
	name, arg, _ := strings.Cut(body, " ")
	return Directive{Name: name, Arg: strings.TrimSpace(arg)}, true
}
