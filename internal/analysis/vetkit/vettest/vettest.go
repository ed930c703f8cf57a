// Package vettest runs a vetkit analyzer over a fixture source tree and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<importpath>/*.go. A line that
// should be flagged carries a trailing comment
//
//	// want "regexp"
//
// (several regexps may follow one want; a line whose own comment runs
// to its end, like a directive's, carries the want before it as
// /* want "regexp" */). The test fails when a want
// matches no diagnostic on that line, and when a diagnostic matches no
// want.
package vettest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ocsml/internal/analysis/vetkit"
)

// Run loads the fixture packages at the given import paths (rooted at
// testdata/src relative to the test's working directory) and applies the
// analyzer, checking diagnostics against want comments.
func Run(t *testing.T, testdata string, a *vetkit.Analyzer, importPaths ...string) {
	t.Helper()
	root := filepath.Join(testdata, "src")
	loader := vetkit.NewLoader(map[string]string{"": root})
	var pkgs []*vetkit.Package
	for _, path := range importPaths {
		pkg, err := loader.LoadPackage(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := vetkit.Run([]*vetkit.Analyzer{a}, pkgs, vetkit.NewProgram(loader.Packages))
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	// Collect diagnostics by file:line.
	got := map[key][]string{}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		got[key{pos.Filename, pos.Line}] = append(got[key{pos.Filename, pos.Line}], d.Message)
	}

	// Collect wants by file:line from every fixture file.
	want := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			tf := loader.Fset.File(f.Pos())
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					line := loader.Fset.Position(c.Pos()).Line
					for _, pat := range scanWantPatterns(t, tf.Name(), line, strings.TrimPrefix(text, "want ")) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", tf.Name(), line, pat, err)
						}
						want[key{tf.Name(), line}] = append(want[key{tf.Name(), line}], re)
					}
				}
			}
		}
	}

	for k, res := range want {
		msgs := got[k]
		for _, re := range res {
			matched := -1
			for i, m := range msgs {
				if m != "" && re.MatchString(m) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, re, msgs)
				continue
			}
			msgs[matched] = "" // consumed
		}
	}
	for k, msgs := range got {
		for _, m := range msgs {
			if m != "" {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, m)
			}
		}
	}
}

// scanWantPatterns splits the body of a want comment into its quoted
// regexps.
func scanWantPatterns(t *testing.T, file string, line int, body string) []string {
	t.Helper()
	var pats []string
	var sc scanner.Scanner
	fset := token.NewFileSet()
	f := fset.AddFile("", fset.Base(), len(body))
	sc.Init(f, []byte(body), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			t.Fatalf("%s:%d: malformed want comment %q", file, line, body)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s:%d: %v", file, line, err)
		}
		pats = append(pats, s)
	}
	if len(pats) == 0 {
		t.Fatalf("%s:%d: want comment with no patterns", file, line)
	}
	return pats
}

// RunClean asserts the analyzer produces no diagnostics on the fixture —
// convenience for all-conforming packages.
func RunClean(t *testing.T, testdata string, a *vetkit.Analyzer, importPaths ...string) {
	t.Helper()
	root := filepath.Join(testdata, "src")
	loader := vetkit.NewLoader(map[string]string{"": root})
	var pkgs []*vetkit.Package
	for _, path := range importPaths {
		pkg, err := loader.LoadPackage(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := vetkit.Run([]*vetkit.Analyzer{a}, pkgs, vetkit.NewProgram(loader.Packages))
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		t.Errorf("%s: unexpected diagnostic: %s", fmtPos(loader.Fset, d.Pos), d.Message)
	}
}

func fmtPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
