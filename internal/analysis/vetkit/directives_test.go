package vetkit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"ocsml/internal/analysis/vetkit"
)

const directiveSrc = `package p

type s struct {
	a int //ocsml:guardedby mu
	//ocsml:guardedby rw
	b int
	c int // plain comment, not a directive
}

//ocsml:locked
func held() {}

// clock reads the wall clock by design.
//
//ocsml:wallclock metrics ticker
func clock() {}

func uses() {
	_ = s{} //ocsml:nolock constructed before it is shared
}
`

func parseDirectiveFile(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

func TestDirectivesCovering(t *testing.T) {
	fset, f := parseDirectiveFile(t)
	d := vetkit.NewDirectives(fset, f)

	// Find the field positions.
	var aPos, bPos, cPos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		fl, ok := n.(*ast.Field)
		if !ok || len(fl.Names) == 0 {
			return true
		}
		switch fl.Names[0].Name {
		case "a":
			aPos = fl.Pos()
		case "b":
			bPos = fl.Pos()
		case "c":
			cPos = fl.Pos()
		}
		return true
	})

	// Trailing same-line directive.
	if got, ok := d.Covering(aPos, "guardedby"); !ok || got.Arg != "mu" {
		t.Fatalf("Covering(a) = %+v, %v; want guardedby mu", got, ok)
	}
	// Directive on the line above.
	if got, ok := d.Covering(bPos, "guardedby"); !ok || got.Arg != "rw" {
		t.Fatalf("Covering(b) = %+v, %v; want guardedby rw", got, ok)
	}
	// Plain comment is not a directive.
	if _, ok := d.Covering(cPos, "guardedby"); ok {
		t.Fatal("Covering(c) found a directive in a plain comment")
	}
	// Wrong name does not match.
	if d.Has(aPos, "locked") {
		t.Fatal("Has(a, locked) matched a guardedby directive")
	}
}

// A trailing directive on a statement covers the expression on its line,
// and its reason keeps its spaces.
func TestDirectivesStatement(t *testing.T) {
	fset, f := parseDirectiveFile(t)
	d := vetkit.NewDirectives(fset, f)
	var pos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			pos = cl.Pos()
		}
		return true
	})
	got, ok := d.Covering(pos, "nolock")
	if !ok || got.Arg != "constructed before it is shared" {
		t.Fatalf("nolock = %+v, %v", got, ok)
	}
}

func TestDocDirectives(t *testing.T) {
	_, f := parseDirectiveFile(t)
	var heldDoc, clockDoc *ast.CommentGroup
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "held":
			heldDoc = fd.Doc
		case "clock":
			clockDoc = fd.Doc
		}
	}
	if !vetkit.CommentGroupHas(heldDoc, "locked") || !vetkit.CommentGroupHas(clockDoc, "wallclock") {
		t.Fatal("CommentGroupHas missed a doc directive")
	}
	// Exact-name matching, and only the declaration's own doc.
	if vetkit.CommentGroupHas(clockDoc, "wall") || vetkit.CommentGroupHas(heldDoc, "wallclock") {
		t.Fatal("CommentGroupHas matched a name prefix or another declaration's directive")
	}
	if vetkit.CommentGroupHas(nil, "locked") {
		t.Fatal("CommentGroupHas matched a missing doc comment")
	}
}

func TestDirectivesIdempotentAdd(t *testing.T) {
	fset, f := parseDirectiveFile(t)
	d := vetkit.NewDirectives(fset, f)
	d.Add(f) // same file again: must not duplicate
	var aPos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.Field); ok && len(fl.Names) == 1 && fl.Names[0].Name == "a" {
			aPos = fl.Pos()
		}
		return true
	})
	got, ok := d.Covering(aPos, "guardedby")
	if !ok || got.Arg != "mu" {
		t.Fatalf("after re-Add: Covering(a) = %+v, %v", got, ok)
	}
}
