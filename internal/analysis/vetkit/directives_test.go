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
	a int //ocsml:loopowned loop
	//ocsml:loopowned Cluster.Run
	b int
	c int // plain comment, not a directive
}

//ocsml:hotpath
func hot() {}

// spin allocates by design.
//
//ocsml:alloc metrics ticker
func spin() {}

func uses() {
	_ = s{} //ocsml:loopexempt constructor runs before the loop starts
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
	if got, ok := d.Covering(aPos, "loopowned"); !ok || got.Arg != "loop" {
		t.Fatalf("Covering(a) = %+v, %v; want loopowned loop", got, ok)
	}
	// Directive on the line above.
	if got, ok := d.Covering(bPos, "loopowned"); !ok || got.Arg != "Cluster.Run" {
		t.Fatalf("Covering(b) = %+v, %v; want loopowned Cluster.Run", got, ok)
	}
	// Plain comment is not a directive.
	if _, ok := d.Covering(cPos, "loopowned"); ok {
		t.Fatal("Covering(c) found a directive in a plain comment")
	}
	// Wrong name does not match.
	if d.Has(aPos, "hotpath") {
		t.Fatal("Has(a, hotpath) matched a loopowned directive")
	}
	if arg, ok := d.Arg(aPos, "loopowned"); !ok || arg != "loop" {
		t.Fatalf("Arg(a, loopowned) = %q, %v", arg, ok)
	}
}

func TestDirectivesLoopexemptStatement(t *testing.T) {
	fset, f := parseDirectiveFile(t)
	d := vetkit.NewDirectives(fset, f)
	var pos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			pos = cl.Pos()
		}
		return true
	})
	arg, ok := d.Arg(pos, "loopexempt")
	if !ok || arg != "constructor runs before the loop starts" {
		t.Fatalf("loopexempt arg = %q, %v", arg, ok)
	}
}

func TestDocDirectives(t *testing.T) {
	_, f := parseDirectiveFile(t)
	var hotDoc, spinDoc *ast.CommentGroup
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "hot":
			hotDoc = fd.Doc
		case "spin":
			spinDoc = fd.Doc
		}
	}
	if dir, ok := vetkit.DocDirective(hotDoc, "hotpath"); !ok || dir.Arg != "" {
		t.Fatalf("DocDirective(hot, hotpath) = %+v, %v", dir, ok)
	}
	if dir, ok := vetkit.DocDirective(spinDoc, "alloc"); !ok || dir.Arg != "metrics ticker" {
		t.Fatalf("DocDirective(spin, alloc) = %+v, %v", dir, ok)
	}
	// Exact-name matching: "alloc" must not match "allocs" etc.
	if _, ok := vetkit.DocDirective(spinDoc, "allo"); ok {
		t.Fatal("DocDirective matched a name prefix")
	}
	all := vetkit.DocDirectives(spinDoc)
	if len(all) != 1 || all[0].Name != "alloc" {
		t.Fatalf("DocDirectives(spin) = %+v", all)
	}
	if !vetkit.CommentGroupHas(spinDoc, "alloc") || vetkit.CommentGroupHas(hotDoc, "alloc") {
		t.Fatal("CommentGroupHas mismatch")
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
	got, ok := d.Covering(aPos, "loopowned")
	if !ok || got.Arg != "loop" {
		t.Fatalf("after re-Add: Covering(a) = %+v, %v", got, ok)
	}
}
