package vetkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Goroutine attribution: the structural layer under loopowned (which
// goroutine runs a body) and allocfree (what a hot path reaches). It
// enumerates every executable body in the program — each function
// declaration plus each function literal nested inside one — classifies
// how every literal's value is consumed (spawned, deferred, invoked in
// place, posted as an argument, stored into a field, escaped), resolves
// every `go` statement to the function it spawns (through method
// selectors, single-assignment method values and generic instantiations),
// and records the static calls each body makes. The analyzers layer
// goroutine-context reasoning on top: which named goroutine a body runs
// on is a fixpoint over these edges plus their own directive-provided
// seeds.

// An Attribution is the per-Program body/spawn index.
type Attribution struct {
	// Bodies lists every executable body, sorted by position.
	Bodies []*Body
	// ByNode maps the owning *ast.FuncDecl or *ast.FuncLit to its body.
	ByNode map[ast.Node]*Body
	// Spawns lists every go statement, sorted by position.
	Spawns []*SpawnSite
}

// LitUse classifies how a function literal's value is consumed at its
// creation site.
type LitUse int

const (
	// UseDecl marks a declared function's own body (not a literal).
	UseDecl LitUse = iota
	// UseGo: operand of a go statement — the literal is a new goroutine.
	UseGo
	// UseDefer: operand of a defer — runs in the enclosing context.
	UseDefer
	// UseCall: invoked where it is written — runs in the enclosing
	// context.
	UseCall
	// UseArg: passed as an argument to a call; Call, Callee and ArgIndex
	// identify the consumer. Whether the consumer runs it synchronously,
	// posts it to an event loop or leaks it to another goroutine is the
	// analyzer's judgment.
	UseArg
	// UseField: assigned (or appended) into a struct field; Field names
	// it. Event loops store deferred work this way.
	UseField
	// UseEscape: stored in a variable, returned, sent on a channel, or
	// otherwise consumed in a way the layer does not track.
	UseEscape
)

// A Body is one executable body: a declared function, or one function
// literal nested inside a declared function.
type Body struct {
	Pkg *Package
	// Fn is the enclosing declared function's callgraph node.
	Fn *FuncNode
	// Decl is the declaration owning this body (set for every body).
	Decl *ast.FuncDecl
	// Lit is the literal this body belongs to; nil for the declaration
	// body itself.
	Lit *ast.FuncLit
	// Parent is the lexically enclosing body; nil for declarations.
	Parent *Body
	// Use classifies how the literal's value is consumed (UseDecl for
	// declarations).
	Use LitUse
	// Call is the consuming call for UseArg/UseCall/UseDefer/UseGo.
	Call *ast.CallExpr
	// Callee is the consuming call's static target for UseArg (nil when
	// the consumer is dynamic or a builtin).
	Callee *types.Func
	// ArgIndex is the literal's position in Call.Args for UseArg.
	ArgIndex int
	// Field is the struct field the literal is stored into for UseField.
	Field *types.Var
	// Calls lists every call lexically in this body, excluding calls
	// inside nested literals (those belong to the nested body) and go
	// operands (those run on the spawned goroutine).
	Calls []*BodyCall
}

// A BodyCall is one call a body makes.
type BodyCall struct {
	Call *ast.CallExpr
	// Callee is the resolved target: a declared function or method for
	// static calls, the interface method for interface dispatch, nil for
	// builtins and untracked function values.
	Callee *types.Func
	// Dynamic reports interface dispatch (Callee is the interface
	// method, not an implementation).
	Dynamic bool
}

// A SpawnSite is one go statement.
type SpawnSite struct {
	// Body is the body lexically containing the go statement.
	Body *Body
	Go   *ast.GoStmt
	// Callee is the spawned function, resolved through method selectors,
	// locally bound method values and generic instantiations; nil when
	// the operand is a literal or cannot be resolved.
	Callee *types.Func
	// Lit is the spawned literal when the operand is one.
	Lit *ast.FuncLit
}

// DeclBody returns the declaration body of fn, or nil when fn has no
// source in the program.
func (at *Attribution) DeclBody(fn *types.Func) *Body {
	for _, b := range at.Bodies {
		if b.Lit == nil && b.Fn.Obj == fn {
			return b
		}
	}
	return nil
}

// attribute builds the Attribution for a program.
func attribute(p *Program) *Attribution {
	at := &Attribution{ByNode: map[ast.Node]*Body{}}
	cg := p.CallGraph()

	// Deterministic package order: all structures sort by position at
	// the end, but building in a stable order keeps slice contents (and
	// therefore any analyzer that iterates them) reproducible.
	var paths []string
	for path := range p.Packages {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	for _, path := range paths {
		pkg := p.Packages[path]
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
				attributeDecl(at, pkg, cg.Node(obj), fd)
			}
		}
	}
	sort.Slice(at.Bodies, func(i, j int) bool { return bodyPos(at.Bodies[i]) < bodyPos(at.Bodies[j]) })
	sort.Slice(at.Spawns, func(i, j int) bool { return at.Spawns[i].Go.Pos() < at.Spawns[j].Go.Pos() })
	return at
}

func bodyPos(b *Body) token.Pos {
	if b.Lit != nil {
		return b.Lit.Pos()
	}
	return b.Decl.Pos()
}

// attributeDecl builds the bodies, calls and spawn sites of one
// declared function.
func attributeDecl(at *Attribution, pkg *Package, fn *FuncNode, fd *ast.FuncDecl) {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	bindings := funcBindings(pkg, fd)

	declBody := &Body{Pkg: pkg, Fn: fn, Decl: fd, Use: UseDecl}
	at.Bodies = append(at.Bodies, declBody)
	at.ByNode[fd] = declBody

	// enclosing returns the body owning node n (the nearest enclosing
	// FuncLit already registered, else the declaration body).
	enclosing := func(n ast.Node) *Body {
		for p := parents[n]; p != nil; p = parents[p] {
			if lit, ok := p.(*ast.FuncLit); ok {
				return at.ByNode[lit]
			}
		}
		return declBody
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b := &Body{Pkg: pkg, Fn: fn, Decl: fd, Lit: n, Parent: enclosing(n)}
			classifyLit(pkg, b, n, parents, bindings)
			at.Bodies = append(at.Bodies, b)
			at.ByNode[n] = b
		case *ast.GoStmt:
			site := &SpawnSite{Body: enclosing(n), Go: n}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				site.Lit = lit
			} else {
				site.Callee = ResolveFuncExpr(pkg, bindings, n.Call.Fun)
			}
			at.Spawns = append(at.Spawns, site)
		case *ast.CallExpr:
			// The operand call of a go statement runs on the spawned
			// goroutine, not in this body.
			if g, ok := parents[n].(*ast.GoStmt); ok && g.Call == n {
				return true
			}
			b := enclosing(n)
			callee := ResolveFuncExpr(pkg, bindings, n.Fun)
			dynamic := false
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					dynamic = types.IsInterface(s.Recv().Underlying())
				}
			}
			b.Calls = append(b.Calls, &BodyCall{Call: n, Callee: callee, Dynamic: dynamic})
		}
		return true
	})
}

// classifyLit determines how the literal's value is consumed by
// examining its ancestors.
func classifyLit(pkg *Package, b *Body, lit *ast.FuncLit, parents map[ast.Node]ast.Node, bindings map[*types.Var]*types.Func) {
	// Walk out of any parenthesization.
	var n ast.Node = lit
	for {
		p, ok := parents[n].(*ast.ParenExpr)
		if !ok {
			break
		}
		n = p
	}
	switch p := parents[n].(type) {
	case *ast.CallExpr:
		if p.Fun == n {
			b.Call = p
			switch gp := parents[p].(type) {
			case *ast.GoStmt:
				if gp.Call == p {
					b.Use = UseGo
					return
				}
			case *ast.DeferStmt:
				if gp.Call == p {
					b.Use = UseDefer
					return
				}
			}
			b.Use = UseCall
			return
		}
		for i, arg := range p.Args {
			if arg == n {
				// append(x.field, ..., lit) assigned back into the field
				// counts as a field store: event loops defer work with
				// exactly this shape.
				if fv := appendFieldTarget(pkg, n, parents); fv != nil {
					b.Use = UseField
					b.Field = fv
					return
				}
				b.Use = UseArg
				b.Call = p
				b.ArgIndex = i
				if fn := ResolveFuncExpr(pkg, bindings, p.Fun); fn != nil {
					b.Callee = fn
				}
				return
			}
		}
		b.Use = UseEscape
	case *ast.AssignStmt:
		// Literal on the right-hand side: find its assignment target.
		for i, rhs := range p.Rhs {
			if rhs != n || i >= len(p.Lhs) {
				continue
			}
			if fv := fieldTarget(pkg, p.Lhs[i]); fv != nil {
				b.Use = UseField
				b.Field = fv
				return
			}
		}
		b.Use = UseEscape
	default:
		b.Use = UseEscape
	}
}

// fieldTarget resolves an assignment target to the struct field it
// names, or nil when the target is not a field selector.
func fieldTarget(pkg *Package, lhs ast.Expr) *types.Var {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var)
	}
	return nil
}

// appendFieldTarget recognizes `x.f = append(x.f, ..., lit, ...)` and
// returns the field x.f.
func appendFieldTarget(pkg *Package, n ast.Node, parents map[ast.Node]ast.Node) *types.Var {
	call, ok := parents[n].(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	assign, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return nil
	}
	for i, rhs := range assign.Rhs {
		if rhs == call && i < len(assign.Lhs) {
			return fieldTarget(pkg, assign.Lhs[i])
		}
	}
	return nil
}

// funcBindings collects single-assignment local variables of function
// type bound to a resolvable function, so `f := n.loop; go f()` (a
// method value spawn) resolves to the method. A variable assigned more
// than once is dropped: the binding is no longer unambiguous.
func funcBindings(pkg *Package, fd *ast.FuncDecl) map[*types.Var]*types.Func {
	bindings := map[*types.Var]*types.Func{}
	killed := map[*types.Var]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = pkg.Info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		if _, seen := bindings[v]; seen || killed[v] {
			delete(bindings, v)
			killed[v] = true
			return
		}
		if fn := ResolveFuncExpr(pkg, nil, rhs); fn != nil {
			bindings[v] = fn
		} else {
			killed[v] = true
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return bindings
}

// ResolveFuncExpr resolves an expression in function position to the
// *types.Func it denotes: a plain function identifier, a method
// selector (through types.Selections), a qualified package function, a
// generic instantiation (the origin function), or a local variable
// holding a single-assignment method value (through bindings; nil
// bindings disables that case).
func ResolveFuncExpr(pkg *Package, bindings map[*types.Var]*types.Func, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			return bindings[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj().(*types.Func)
		}
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return obj
		}
	case *ast.IndexExpr:
		return ResolveFuncExpr(pkg, bindings, e.X)
	case *ast.IndexListExpr:
		return ResolveFuncExpr(pkg, bindings, e.X)
	}
	return nil
}
