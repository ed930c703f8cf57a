// Package loopowned proves goroutine ownership of struct fields: a
// field annotated
//
//	//ocsml:loopowned <goroutine>
//
// may be read or written only by code proven to run on the named
// goroutine — the owning event-loop method itself, or a closure posted
// to it. The runtime's concurrency model is event loops serializing all
// state access through an inbox of closures (transport.Node.post); this
// analyzer turns that convention into a checked invariant, the class of
// bug behind the Cluster.makespan race and a retransmit-vs-delivery
// race.
//
// The owner names a function in the same package: a method of the
// field's struct ("loop", "storageLoop") or a method of another type
// ("Cluster.Run" for the DES, whose node state is serialized by the
// simulation driver rather than a spawned goroutine; "Driver.After" for
// the shared process host, whose state is owned by whichever loop its
// driver runs After callbacks on).
//
// Every executable body (declaration or function literal) is assigned a
// goroutine context by fixpoint over vetkit's attribution layer:
//
//   - the operand of a go statement is its own new goroutine;
//   - a literal passed to an //ocsml:looppost <goroutine> function, or
//     stored into an //ocsml:looppost field, runs on that goroutine
//     (the inbox post and the deferred-work queue, respectively);
//   - deferred and immediately-invoked literals inherit their enclosing
//     context, as do literals handed to the known-synchronous stdlib
//     helpers (sort.Slice and friends);
//   - a declared function inherits the join of its static callers'
//     contexts; //ocsml:loopcontext <goroutine> on a declaration (or on
//     a type, seeding every method) asserts the context across dynamic
//     dispatch boundaries the callgraph cannot cross — the Env methods
//     protocols invoke through an interface;
//   - anything else (escaping literals, unseeded roots) is unproven.
//
// An access is legal only when its body's context is exactly the owning
// goroutine and the body is not also reachable from an unproven
// context. //ocsml:loopexempt <why> opts out one access (constructor
// initialization before the goroutines start, post-join teardown).
package loopowned

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ocsml/internal/analysis/vetkit"
)

// Analyzer is the loopowned analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "loopowned",
	Doc:  "//ocsml:loopowned fields are accessed only on their owning goroutine",
	Run:  run,
}

// ctxKind classifies a body's goroutine context.
type ctxKind int

const (
	ctxUnknown ctxKind = iota // not proven to run anywhere in particular
	ctxOrigin                 // runs on one known goroutine origin
	ctxMixed                  // reachable from more than one goroutine
)

// A bodyCtx is the goroutine context of one body: Unknown, a single
// origin (a named function, or an anonymous spawned literal identified
// by position), or Mixed.
type bodyCtx struct {
	kind   ctxKind
	fn     *types.Func // named origin (owner method, spawned function)
	litPos token.Pos   // anonymous origin: a spawned literal
}

func origin(fn *types.Func) bodyCtx { return bodyCtx{kind: ctxOrigin, fn: fn} }
func litOrigin(p token.Pos) bodyCtx { return bodyCtx{kind: ctxOrigin, litPos: p} }
func join(a, b bodyCtx) bodyCtx {
	switch {
	case a.kind == ctxUnknown:
		return b
	case b.kind == ctxUnknown:
		return a
	case a == b:
		return a
	default:
		return bodyCtx{kind: ctxMixed}
	}
}

// syncHelpers invoke their function argument synchronously in the
// caller's goroutine; literals passed to them inherit the enclosing
// context.
var syncHelpers = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Search":           true,
	"path/filepath.Walk":    true,
	"path/filepath.WalkDir": true,
	"go/ast.Inspect":        true,
	"(*sync.Once).Do":       true,
}

// progFacts is the per-program analysis state, computed once and shared
// by every per-package pass.
type progFacts struct {
	at    *vetkit.Attribution
	dirs  *vetkit.Directives
	owned map[*types.Var]*types.Func // annotated field -> owner

	ctx     map[*vetkit.Body]bodyCtx
	tainted map[*vetkit.Body]string // body also reachable from unproven context (value: who)

	errs []factErr // malformed/unresolvable directives
}

type factErr struct {
	pkg *types.Package
	pos token.Pos
	msg string
}

var cache = map[*vetkit.Program]*progFacts{}

func run(pass *vetkit.Pass) error {
	pf, ok := cache[pass.Program]
	if !ok {
		pf = build(pass.Program)
		cache[pass.Program] = pf
	}
	for _, e := range pf.errs {
		if e.pkg == pass.Pkg {
			pass.Reportf(e.pos, "%s", e.msg)
		}
	}
	if len(pf.owned) == 0 {
		return nil
	}
	for _, b := range pf.at.Bodies {
		if b.Pkg.Types == pass.Pkg {
			checkBody(pass, pf, b)
		}
	}
	return nil
}

// build computes ownership tables and the goroutine-context fixpoint.
func build(prog *vetkit.Program) *progFacts {
	pf := &progFacts{
		at:      prog.Attribution(),
		dirs:    prog.Directives(),
		owned:   map[*types.Var]*types.Func{},
		ctx:     map[*vetkit.Body]bodyCtx{},
		tainted: map[*vetkit.Body]string{},
	}
	postFuncs := map[*types.Func]*types.Func{} // looppost function -> owner
	postFields := map[*types.Var]*types.Func{} // looppost field -> owner
	seeds := map[*types.Func]*types.Func{}     // asserted/owner function -> origin

	for _, pkg := range sortedPackages(prog) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						pf.collectType(pkg, d, ts, postFields, seeds)
					}
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if dir, ok := vetkit.DocDirective(d.Doc, "looppost"); ok {
						if owner := pf.resolveOwner(pkg, recvType(fn), dir.Arg, d.Name.Pos(), "looppost"); owner != nil {
							postFuncs[fn] = owner
						}
					}
					if dir, ok := vetkit.DocDirective(d.Doc, "loopcontext"); ok {
						if owner := pf.resolveOwner(pkg, recvType(fn), dir.Arg, d.Name.Pos(), "loopcontext"); owner != nil {
							seeds[fn] = owner
						}
					}
				}
			}
		}
	}
	// Every owner runs, by definition, on its own goroutine.
	for _, owner := range pf.owned {
		seeds[owner] = owner
	}
	for _, owner := range postFuncs {
		seeds[owner] = owner
	}
	for _, owner := range postFields {
		seeds[owner] = owner
	}

	pf.solve(seeds, postFuncs, postFields)
	return pf
}

// collectType reads loopowned/looppost field directives and type-level
// loopcontext assertions from one type declaration.
func (pf *progFacts) collectType(pkg *vetkit.Package, gd *ast.GenDecl, ts *ast.TypeSpec, postFields map[*types.Var]*types.Func, seeds map[*types.Func]*types.Func) {
	tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	doc := ts.Doc
	if doc == nil {
		doc = gd.Doc
	}
	if dir, ok := vetkit.DocDirective(doc, "loopcontext"); ok {
		if owner := pf.resolveOwner(pkg, tn, dir.Arg, ts.Name.Pos(), "loopcontext"); owner != nil {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					seeds[named.Method(i)] = owner
				}
			}
		}
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		for _, name := range []string{"loopowned", "looppost"} {
			dir, ok := vetkit.DocDirective(field.Doc, name)
			if !ok {
				dir, ok = pf.dirs.Covering(field.Pos(), name)
			}
			if !ok {
				continue
			}
			owner := pf.resolveOwner(pkg, tn, dir.Arg, field.Pos(), name)
			if owner == nil {
				continue
			}
			for _, id := range field.Names {
				fv, ok := pkg.Info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if name == "loopowned" {
					pf.owned[fv] = owner
				} else {
					postFields[fv] = owner
				}
			}
		}
	}
}

// resolveOwner maps a directive argument to the function it names: a
// method of the annotated type ("loop"), a Type.method in the same
// package ("Cluster.Run"), or a package-level function.
func (pf *progFacts) resolveOwner(pkg *vetkit.Package, tn *types.TypeName, arg string, pos token.Pos, directive string) *types.Func {
	bad := func(format string, args ...any) *types.Func {
		pf.errs = append(pf.errs, factErr{pkg.Types, pos, fmt.Sprintf("//ocsml:%s %s: %s", directive, arg, fmt.Sprintf(format, args...))})
		return nil
	}
	if arg == "" {
		return bad("missing goroutine name: want //ocsml:%s <method or Type.method>", directive)
	}
	if typeName, method, ok := strings.Cut(arg, "."); ok {
		obj := pkg.Types.Scope().Lookup(typeName)
		otn, isType := obj.(*types.TypeName)
		if !isType {
			return bad("type %s not found in package %s", typeName, pkg.Types.Name())
		}
		return pf.lookupMethod(pkg, otn, method, arg, pos, directive)
	}
	if tn != nil {
		if fn := methodOn(pkg, tn, arg); fn != nil {
			return fn
		}
	}
	if fn, ok := pkg.Types.Scope().Lookup(arg).(*types.Func); ok {
		return fn
	}
	if tn != nil {
		return bad("no method %s on %s and no such function in package %s", arg, tn.Name(), pkg.Types.Name())
	}
	return bad("no such function in package %s", pkg.Types.Name())
}

func (pf *progFacts) lookupMethod(pkg *vetkit.Package, tn *types.TypeName, method, arg string, pos token.Pos, directive string) *types.Func {
	if fn := methodOn(pkg, tn, method); fn != nil {
		return fn
	}
	pf.errs = append(pf.errs, factErr{pkg.Types, pos, fmt.Sprintf("//ocsml:%s %s: no method %s on %s", directive, arg, method, tn.Name())})
	return nil
}

func methodOn(pkg *vetkit.Package, tn *types.TypeName, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	return nil
}

func recvType(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// solve runs the goroutine-context fixpoint, then the taint pass.
func (pf *progFacts) solve(seeds, postFuncs map[*types.Func]*types.Func, postFields map[*types.Var]*types.Func) {
	// Index incoming edges: static calls and spawns by target function.
	callers := map[*types.Func][]*vetkit.Body{}
	spawned := map[*types.Func]bool{}
	for _, b := range pf.at.Bodies {
		for _, c := range b.Calls {
			if c.Callee != nil && !c.Dynamic {
				callers[c.Callee] = append(callers[c.Callee], b)
			}
		}
	}
	for _, s := range pf.at.Spawns {
		if s.Callee != nil {
			spawned[s.Callee] = true
		}
	}

	compute := func(b *vetkit.Body) bodyCtx {
		if b.Lit == nil {
			fn := b.Fn.Obj
			if o, ok := seeds[fn]; ok {
				return origin(o)
			}
			var c bodyCtx
			if spawned[fn] {
				// A spawned named function is its own goroutine origin.
				c = origin(fn)
			}
			for _, caller := range callers[fn] {
				c = join(c, pf.ctx[caller])
			}
			return c
		}
		switch b.Use {
		case vetkit.UseGo:
			return litOrigin(b.Lit.Pos())
		case vetkit.UseDefer, vetkit.UseCall:
			return pf.ctx[b.Parent]
		case vetkit.UseArg:
			if b.Callee != nil {
				if owner, ok := postFuncs[b.Callee]; ok {
					return origin(owner)
				}
				if syncHelpers[b.Callee.FullName()] {
					return pf.ctx[b.Parent]
				}
			}
			return bodyCtx{}
		case vetkit.UseField:
			if owner, ok := postFields[b.Field]; ok {
				return origin(owner)
			}
			return bodyCtx{}
		default:
			return bodyCtx{}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range pf.at.Bodies {
			if c := compute(b); c != pf.ctx[b] {
				pf.ctx[b] = c
				changed = true
			}
		}
	}

	// Taint pass: a function whose context joined to a single origin but
	// that is also reachable from an unproven caller may in fact run
	// elsewhere; its accesses are not proven. Assertions (seeds) are
	// trusted and stop taint.
	for _, b := range pf.at.Bodies {
		if b.Lit != nil || pf.ctx[b].kind != ctxOrigin {
			continue
		}
		fn := b.Fn.Obj
		if _, isSeed := seeds[fn]; isSeed {
			continue
		}
		for _, caller := range callers[fn] {
			if pf.ctx[caller].kind == ctxUnknown {
				pf.tainted[b] = describeBody(caller)
				break
			}
		}
	}
	// Propagate taint: callees of a tainted body and literals inheriting
	// its context are tainted too.
	for changed := true; changed; {
		changed = false
		for _, b := range pf.at.Bodies {
			if pf.tainted[b] != "" || pf.ctx[b].kind != ctxOrigin {
				continue
			}
			var from string
			if b.Lit == nil {
				fn := b.Fn.Obj
				if _, isSeed := seeds[fn]; isSeed {
					continue
				}
				for _, caller := range callers[fn] {
					if t := pf.tainted[caller]; t != "" {
						from = t
						break
					}
				}
			} else if b.Use == vetkit.UseDefer || b.Use == vetkit.UseCall ||
				(b.Use == vetkit.UseArg && b.Callee != nil && syncHelpers[b.Callee.FullName()]) {
				// Only bodies that inherited the parent's context inherit
				// its taint; posted closures run on the owner regardless
				// of who posted them.
				if b.Parent != nil {
					from = pf.tainted[b.Parent]
				}
			}
			if from != "" {
				pf.tainted[b] = from
				changed = true
			}
		}
	}
}

// checkBody replays one body's field accesses against the ownership
// table.
func checkBody(pass *vetkit.Pass, pf *progFacts, b *vetkit.Body) {
	var root ast.Node = b.Decl.Body
	if b.Lit != nil {
		root = b.Lit.Body
	}
	if root == nil {
		return
	}
	c := pf.ctx[b]
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != b.Lit {
			return false // nested literal: its own body
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		fld, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		owner, ok := pf.owned[fld]
		if !ok {
			return true
		}
		if pf.dirs.Has(sel.Pos(), "loopexempt") {
			return true
		}
		ownerName := funcDisplayName(owner)
		where := describeBody(b)
		switch {
		case c.kind == ctxOrigin && c.fn == owner:
			if t := pf.tainted[b]; t != "" {
				pass.Reportf(sel.Pos(), "field %s is owned by goroutine %s, but %s is also reachable from %s, which is not proven to run on %s (assert //ocsml:loopcontext %s there, or //ocsml:loopexempt <why> here)",
					fld.Name(), ownerName, where, t, ownerName, ownerName)
			}
		case c.kind == ctxOrigin:
			pass.Reportf(sel.Pos(), "field %s is owned by goroutine %s but accessed from %s",
				fld.Name(), ownerName, c.describe())
		case c.kind == ctxMixed:
			pass.Reportf(sel.Pos(), "field %s is owned by goroutine %s but %s is reachable from multiple goroutines",
				fld.Name(), ownerName, where)
		default:
			pass.Reportf(sel.Pos(), "field %s is owned by goroutine %s but %s is not proven to run on it (post through an //ocsml:looppost func, assert //ocsml:loopcontext %s, or //ocsml:loopexempt <why>)",
				fld.Name(), ownerName, where, ownerName)
		}
		return true
	})
}

func (c bodyCtx) describe() string {
	if c.fn != nil {
		return "goroutine " + funcDisplayName(c.fn)
	}
	return "an anonymous spawned goroutine"
}

// describeBody names a body for diagnostics.
func describeBody(b *vetkit.Body) string {
	name := funcDisplayName(b.Fn.Obj)
	if b.Lit != nil {
		return "a function literal in " + name
	}
	return name
}

// funcDisplayName renders Recv.name for methods, name for functions —
// matching the directive argument grammar.
func funcDisplayName(fn *types.Func) string {
	if tn := recvType(fn); tn != nil {
		return tn.Name() + "." + fn.Name()
	}
	return fn.Name()
}

// sortedPackages returns the program's packages in import-path order,
// keeping error slices stable across runs.
func sortedPackages(prog *vetkit.Program) []*vetkit.Package {
	var paths []string
	for path := range prog.Packages {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*vetkit.Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, prog.Packages[p])
	}
	return out
}
