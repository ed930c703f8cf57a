package vetkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// A Program is the whole-program view shared by every pass of one
// analysis run: every package the loader resolved from source, plus the
// interprocedural structures (callgraph) built lazily over them. The
// per-package analyzers ignore it; the interprocedural ones (loopowned,
// allocfree) key their cached summaries off the Program pointer, so one
// ocsmlvet invocation builds each structure exactly once no matter how
// many packages it checks.
type Program struct {
	// Packages maps import path to every source-loaded package.
	Packages map[string]*Package

	cgOnce sync.Once
	cg     *CallGraph

	dirOnce sync.Once
	dirs    *Directives

	attrOnce sync.Once
	attr     *Attribution
}

// NewProgram wraps a loader's package map.
func NewProgram(pkgs map[string]*Package) *Program {
	return &Program{Packages: pkgs}
}

// CallGraph returns the static callgraph over every source-loaded
// function, built on first use and cached for the Program's lifetime.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p) })
	return p.cg
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

// Attribution returns the goroutine-attribution view (every executable
// body plus every spawn site), built on first use.
func (p *Program) Attribution() *Attribution {
	p.attrOnce.Do(func() { p.attr = attribute(p) })
	return p.attr
}

// A CallGraph records, for every function with source in the program,
// its resolved static call sites. Dynamic dispatch (interface method
// calls) is recorded per site but deliberately not edge-expanded:
// protocols are single-threaded state machines whose effect interfaces
// never call back into them, so the analyzers treat dynamic calls by
// name rather than by conservative fan-out.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
}

// A FuncNode is one function (or method) in the callgraph.
type FuncNode struct {
	// Obj is the function's type-checker object.
	Obj *types.Func
	// Decl is the function's source declaration; nil when the function
	// was resolved through the stdlib importer (no source loaded).
	Decl *ast.FuncDecl
	// Pkg is the source package the declaration lives in (nil with Decl).
	Pkg *Package
	// Calls lists every call site inside Decl, in source order,
	// including sites inside nested function literals.
	Calls []*CallSite
}

// A CallSite is one call expression inside a function body.
type CallSite struct {
	// Caller is the enclosing declared function.
	Caller *FuncNode
	// Callee is the statically resolved target, nil for dynamic calls
	// (interface methods, function values) and builtins.
	Callee *FuncNode
	// Call is the call expression itself.
	Call *ast.CallExpr
}

// Node returns the callgraph node for fn, or nil when fn has no source
// in the program and no site calls it.
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	return g.nodes[fn]
}

// Funcs returns every node with a source declaration, sorted by
// declaration position (the loader shares one FileSet, so positions
// order deterministically across packages).
func (g *CallGraph) Funcs() []*FuncNode {
	var out []*FuncNode
	for _, n := range g.nodes {
		if n.Decl != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// buildCallGraph walks every declared function body in every package and
// resolves its call sites.
func buildCallGraph(p *Program) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*FuncNode{}}
	node := func(fn *types.Func) *FuncNode {
		n, ok := g.nodes[fn]
		if !ok {
			n = &FuncNode{Obj: fn}
			g.nodes[fn] = n
		}
		return n
	}
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := node(obj)
				n.Decl = fd
				n.Pkg = pkg
				collectCalls(pkg, n, fd.Body, node)
			}
		}
	}
	return g
}

// collectCalls appends every call site under root to caller.Calls.
func collectCalls(pkg *Package, caller *FuncNode, root ast.Node, node func(*types.Func) *FuncNode) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n, ok := n.(*ast.CallExpr); ok {
			site := &CallSite{Caller: caller, Call: n}
			if fn, dynamic := resolveCallee(pkg, n); fn != nil && !dynamic {
				site.Callee = node(fn)
			}
			caller.Calls = append(caller.Calls, site)
		}
		return true
	})
}

// resolveCallee maps a call expression to the *types.Func it invokes.
// dynamic reports interface dispatch (the returned func is the interface
// method, not an implementation).
func resolveCallee(pkg *Package, call *ast.CallExpr) (fn *types.Func, dynamic bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return obj, false
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			obj := sel.Obj().(*types.Func)
			return obj, types.IsInterface(sel.Recv().Underlying())
		}
		// Qualified package function (os.Rename) resolves through Uses.
		if obj, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return obj, false
		}
	}
	return nil, false
}
