package vetkit_test

import (
	"os"
	"path/filepath"
	"testing"

	"ocsml/internal/analysis/vetkit"
)

// writeTree materializes a fixture source tree in a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Build-constrained files must be excluded exactly as a plain
// `go build` excludes them: the soak-tagged file below redeclares Mode
// and would fail type-checking if loaded.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"p/normal.go": "package p\n\n// Mode names the build flavor.\nconst Mode = \"normal\"\n",
		"p/soak.go":   "//go:build soak\n\npackage p\n\n// Mode names the build flavor.\nconst Mode = \"soak\"\n",
	})
	l := vetkit.NewLoader(map[string]string{"m": dir})
	pkg, err := l.LoadPackage("m/p")
	if err != nil {
		t.Fatalf("LoadPackage: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (soak-tagged file must be excluded)", len(pkg.Files))
	}
}

// Generic functions and inferred instantiations must type-check.
func TestLoadGenerics(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"g/g.go": `package g

// Map applies f to every element.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Doubled doubles every element via an inferred instantiation.
func Doubled(xs []int) []int {
	return Map(xs, func(x int) int { return x * 2 })
}
`,
	})
	l := vetkit.NewLoader(map[string]string{"m": dir})
	pkg, err := l.LoadPackage("m/g")
	if err != nil {
		t.Fatalf("LoadPackage: %v", err)
	}
	if pkg.Types.Scope().Lookup("Doubled") == nil {
		t.Fatal("generic package loaded without its declarations")
	}
}

// Expand must skip testdata, hidden, and underscore directories (their
// contents need not even be valid Go), and directories whose only files
// are excluded by build constraints.
func TestExpandSkipsNonPackageDirs(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"p/p.go":               "package p\n",
		"p/testdata/broken.go": "this is not Go\n",
		"p/_wip/w.go":          "neither is this\n",
		"p/.hidden/h.go":       "nor this\n",
		"q/only_soak.go":       "//go:build soak\n\npackage q\n",
	})
	l := vetkit.NewLoader(map[string]string{"m": dir})
	paths, err := l.Expand("m", []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(paths) != 1 || paths[0] != "m/p" {
		t.Fatalf("Expand = %v, want [m/p]", paths)
	}
	if _, err := l.LoadPackage("m/p"); err != nil {
		t.Fatalf("LoadPackage after Expand: %v", err)
	}
}
