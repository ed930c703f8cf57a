// Package piggybackcomplete implements the piggyback completeness
// analyzer. The paper's consistency argument (§3.2) requires every
// application message to carry the sender's piggybacked state — csn,
// stat, tentSet — and every receiver to examine that state before it
// touches its checkpoint store: the receive rules of Figures 3 and 4
// dispatch on the piggyback, so mutating first applies a rule to stale
// state. The compiler sees none of this (Envelope.Payload is `any`);
// this analyzer proves it interprocedurally:
//
//   - every implementation of protocol.Protocol.OnAppSend must attach
//     the piggyback payload on every path before returning (the engine
//     transmits the envelope right after OnAppSend returns). Attaching
//     means assigning e.Payload, delegating to another OnAppSend with
//     the same envelope (the reliable-transport wrapper), or calling a
//     helper that itself attaches on every path — a must-analysis over
//     the callgraph;
//   - every implementation of protocol.Protocol.OnDeliver must consume
//     the payload — read e.Payload, or hand the envelope to another
//     handler — before any call that (transitively) mutates the
//     checkpoint store (checkpoint.ProcStore Add / MarkStable /
//     TruncateAfter / GC). A helper that receives the envelope inherits
//     the obligation and is checked the same way.
//
// Baselines that carry no piggyback by design (Chandy–Lamport and the
// other index-free protocols) declare it with //ocsml:nopiggyback <why>
// in the doc comment of the implementation type (covering both methods)
// or of one method.
//
// Calls into closures are treated by their lexical position for
// consumption and ignored for mutation: the DeliverApp pre/then hooks
// run at processing time under the engine's control, after the delivery
// path has already examined the piggyback.
package piggybackcomplete

import (
	"go/ast"
	"go/types"

	"ocsml/internal/analysis/vetkit"
)

// Analyzer is the piggybackcomplete analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "piggybackcomplete",
	Doc:  "OnAppSend attaches the piggyback on every path; OnDeliver consumes it before mutating checkpoint state",
	Run:  run,
}

// mutatorNames are the checkpoint.ProcStore methods that change store
// contents; everything else on ProcStore is a read.
var mutatorNames = map[string]bool{
	"Add": true, "MarkStable": true, "TruncateAfter": true, "GC": true,
}

type key struct {
	fn  *types.Func
	idx int
}

// progFacts holds the whole-program structures shared by every pass.
type progFacts struct {
	env      *types.TypeName // protocol.Envelope
	proto    *types.Interface
	mutators map[*types.Func]bool
	attach   map[*types.Func]map[int]bool // param index -> attaches on every path
	checked  map[key]bool                 // consume-check memo (one report per site)
}

// cache memoizes per program; passes run sequentially.
var cache = map[*vetkit.Program]*progFacts{}

func run(pass *vetkit.Pass) error {
	pf := facts(pass.Program)
	if pf == nil {
		return nil // no protocol package in scope (unrelated fixture tree)
	}
	cg := pass.Program.CallGraph()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok || !implementsProtocol(obj, pf.proto) {
					continue
				}
				if vetkit.CommentGroupHas(ts.Doc, "nopiggyback") || vetkit.CommentGroupHas(gd.Doc, "nopiggyback") {
					continue
				}
				checkImpl(pass, pf, cg, obj)
			}
		}
	}
	return nil
}

// checkImpl verifies both protocol methods of one implementation type.
func checkImpl(pass *vetkit.Pass, pf *progFacts, cg *vetkit.CallGraph, impl *types.TypeName) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || receiverType(obj) != impl {
				continue
			}
			if vetkit.CommentGroupHas(fd.Doc, "nopiggyback") {
				continue
			}
			node := cg.Node(obj)
			if node == nil {
				continue
			}
			idx := envParamIndex(obj, pf.env)
			if idx < 0 {
				continue
			}
			switch fd.Name.Name {
			case "OnAppSend":
				if !pf.attach[obj][idx] {
					pass.Reportf(fd.Name.Pos(), "OnAppSend of %s does not attach the piggyback payload on every path before the envelope is sent (assign e.Payload, delegate, or annotate the type //ocsml:nopiggyback <why>)", impl.Name())
				}
			case "OnDeliver":
				checkConsume(pass, pf, node, idx)
			}
		}
	}
}

// facts builds (once per program) the interface/type handles and the
// interprocedural summaries.
func facts(program *vetkit.Program) *progFacts {
	if pf, ok := cache[program]; ok {
		return pf
	}
	cache[program] = nil
	pp := program.PackageBySuffix("internal/protocol")
	if pp == nil {
		return nil
	}
	protoObj, _ := pp.Types.Scope().Lookup("Protocol").(*types.TypeName)
	envObj, _ := pp.Types.Scope().Lookup("Envelope").(*types.TypeName)
	if protoObj == nil || envObj == nil {
		return nil
	}
	iface, ok := protoObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	pf := &progFacts{
		env:     envObj,
		proto:   iface,
		checked: map[key]bool{},
	}
	pf.mutators = computeMutators(program)
	pf.attach = computeAttach(program, envObj)
	cache[program] = pf
	return pf
}

// ---- interprocedural summaries ----

// computeMutators closes the ProcStore mutator methods over the static
// callgraph. Call sites inside closures count: calling a function whose
// closure mutates may mutate.
func computeMutators(program *vetkit.Program) map[*types.Func]bool {
	funcs := program.CallGraph().Funcs()
	mut := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range funcs {
			if mut[n.Obj] {
				continue
			}
			for _, site := range n.Calls {
				if site.Callee == nil {
					continue
				}
				if isBaseMutator(site.Callee.Obj) || mut[site.Callee.Obj] {
					mut[n.Obj] = true
					changed = true
					break
				}
			}
		}
	}
	return mut
}

// isBaseMutator reports a direct ProcStore mutation method.
func isBaseMutator(fn *types.Func) bool {
	if !mutatorNames[fn.Name()] {
		return false
	}
	recv := receiverType(fn)
	return recv != nil && recv.Name() == "ProcStore" &&
		recv.Pkg() != nil && vetkit.PathHasSuffix(recv.Pkg().Path(), "internal/checkpoint")
}

// computeAttach runs the must-attach analysis over every function with
// an *Envelope parameter to a fixpoint: attach[f][i] means every path
// through f assigns Payload on (or delegates) its i-th parameter.
func computeAttach(program *vetkit.Program, env *types.TypeName) map[*types.Func]map[int]bool {
	funcs := program.CallGraph().Funcs()
	attach := map[*types.Func]map[int]bool{}
	type target struct {
		n    *vetkit.FuncNode
		idxs []int
	}
	var targets []target
	for _, n := range funcs {
		var idxs []int
		sig := n.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if isEnvPtr(sig.Params().At(i).Type(), env) {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			targets = append(targets, target{n, idxs})
			attach[n.Obj] = map[int]bool{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, t := range targets {
			got := attachedParams(t.n, t.idxs, attach)
			for _, i := range t.idxs {
				if got[i] && !attach[t.n.Obj][i] {
					attach[t.n.Obj][i] = true
					changed = true
				}
			}
		}
	}
	return attach
}

// attachFact maps each tracked envelope parameter to "attached on every
// path so far". Merge is AND.
type attachFact map[*types.Var]bool

func mergeAttach(a, b attachFact) attachFact {
	out := make(attachFact, len(a))
	for v, t := range a {
		out[v] = t && b[v]
	}
	return out
}

func equalAttach(a, b attachFact) bool {
	for v, t := range a {
		if b[v] != t {
			return false
		}
	}
	return true
}

// attachedParams evaluates one function against the current summaries.
func attachedParams(n *vetkit.FuncNode, idxs []int, summaries map[*types.Func]map[int]bool) map[int]bool {
	sig := n.Obj.Type().(*types.Signature)
	tracked := map[*types.Var]int{}
	for _, i := range idxs {
		if v := sig.Params().At(i); v.Name() != "" && v.Name() != "_" {
			tracked[v] = i
		}
	}
	sites := map[*ast.CallExpr]*vetkit.CallSite{}
	for _, s := range n.Calls {
		sites[s.Call] = s
	}
	info := n.Pkg.Info
	g := vetkit.NewCFG(n.Decl.Body)
	entry := attachFact{}
	for v := range tracked {
		entry[v] = false
	}
	transfer := func(b *vetkit.Block, in attachFact) attachFact {
		f := make(attachFact, len(in))
		for v, t := range in {
			f[v] = t
		}
		for _, node := range b.Nodes {
			if as, ok := node.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Payload" {
						if v := identVar(info, sel.X); v != nil {
							if _, ok := tracked[v]; ok {
								f[v] = true
							}
						}
					}
				}
			}
			// Attach-by-call anywhere in the node; closures do not run
			// before OnAppSend returns, so their interiors are skipped.
			inspectSkipLits(node, func(call *ast.CallExpr) {
				for argIdx, arg := range call.Args {
					v := identVar(info, arg)
					if v == nil {
						continue
					}
					if _, ok := tracked[v]; !ok {
						continue
					}
					if calleeNamed(call, "OnAppSend") {
						f[v] = true
						continue
					}
					if site, ok := sites[call]; ok && site.Callee != nil {
						if s := summaries[site.Callee.Obj]; s != nil && s[argIdx] {
							f[v] = true
						}
					}
				}
			})
		}
		return f
	}
	in := vetkit.Forward(g, entry, transfer, mergeAttach, equalAttach)
	out := map[int]bool{}
	exit, ok := in[g.Exit]
	if !ok {
		// Every path panics: vacuously attached (nothing is ever sent).
		for _, i := range idxs {
			out[i] = true
		}
		return out
	}
	for v, i := range tracked {
		if exit[v] {
			out[i] = true
		}
	}
	return out
}

// ---- consume-before-mutate ----

// checkConsume verifies that fn reads the Payload of its idx-th
// parameter (or hands the envelope on) before any checkpoint mutation,
// recursing into helpers that receive the envelope.
func checkConsume(pass *vetkit.Pass, pf *progFacts, n *vetkit.FuncNode, idx int) {
	k := key{n.Obj, idx}
	if pf.checked[k] {
		return
	}
	pf.checked[k] = true
	if n.Decl == nil || n.Decl.Body == nil {
		return
	}
	sig := n.Obj.Type().(*types.Signature)
	tracked := sig.Params().At(idx) // unnamed: nothing can ever consume it
	sites := map[*ast.CallExpr]*vetkit.CallSite{}
	for _, s := range n.Calls {
		sites[s.Call] = s
	}
	info := n.Pkg.Info
	c := &consumeChecker{
		pass: pass, pf: pf, info: info, sites: sites,
		tracked: tracked, fname: n.Obj.Name(),
	}
	g := vetkit.NewCFG(n.Decl.Body)
	transfer := func(b *vetkit.Block, in bool) bool { return c.transfer(b, in, false) }
	in := vetkit.Forward(g, false, transfer,
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a == b })
	for _, b := range g.Blocks {
		entry, ok := in[b]
		if !ok {
			continue
		}
		c.transfer(b, entry, true)
	}
}

type consumeChecker struct {
	pass    *vetkit.Pass
	pf      *progFacts
	info    *types.Info
	sites   map[*ast.CallExpr]*vetkit.CallSite
	tracked *types.Var
	fname   string
}

func (c *consumeChecker) transfer(b *vetkit.Block, consumed bool, report bool) bool {
	for _, n := range b.Nodes {
		consumed = c.scan(n, consumed, report, false)
	}
	return consumed
}

// scan walks one node in evaluation order, updating the consumed flag
// and (when report is set) flagging premature mutations.
func (c *consumeChecker) scan(n ast.Node, consumed bool, report, inLit bool) bool {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Consumption inside a closure counts (the hook observes the
			// payload when it runs); mutation inside it is the engine's
			// scheduling, not this delivery path's.
			consumed = c.scan(n.Body, consumed, report, true)
			return false
		case *ast.SelectorExpr:
			if n.Sel.Name == "Payload" && identVar(c.info, n.X) == c.tracked {
				consumed = true
			}
		case *ast.CallExpr:
			// Reads of the payload in the arguments happen before the
			// call: credit them first.
			for _, arg := range n.Args {
				if readsPayload(c.info, arg, c.tracked) {
					consumed = true
				}
			}
			site := c.sites[n]
			argIdx := -1
			for i, arg := range n.Args {
				if identVar(c.info, arg) == c.tracked {
					argIdx = i
					break
				}
			}
			if argIdx >= 0 {
				// The envelope is handed on: the callee inherits the
				// obligation (checked recursively when static) — but only
				// while it is still outstanding. Once the payload has been
				// read, downstream helpers are free to mutate.
				if !consumed && report && site != nil && site.Callee != nil && site.Callee.Decl != nil {
					checkConsume(c.pass, c.pf, site.Callee, argIdx)
				}
				consumed = true
				return true
			}
			if !consumed && !inLit && report && site != nil && site.Callee != nil &&
				(isBaseMutator(site.Callee.Obj) || c.pf.mutators[site.Callee.Obj]) {
				c.pass.Reportf(n.Pos(), "call to %s in %s mutates checkpoint state before the piggyback payload (%s.Payload) is consumed: the receive rules dispatch on the piggyback", site.Callee.Obj.Name(), c.fname, paramName(c.tracked))
			}
		}
		return true
	})
	return consumed
}

// readsPayload reports whether expr contains a read of tracked.Payload.
func readsPayload(info *types.Info, expr ast.Expr, tracked *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Payload" && identVar(info, sel.X) == tracked {
			found = true
		}
		return !found
	})
	return found
}

// ---- small helpers ----

func implementsProtocol(obj *types.TypeName, iface *types.Interface) bool {
	t := obj.Type()
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// receiverType returns the named type a method is declared on, nil for
// plain functions.
func receiverType(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// envParamIndex finds the first *protocol.Envelope parameter.
func envParamIndex(fn *types.Func, env *types.TypeName) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isEnvPtr(sig.Params().At(i).Type(), env) {
			return i
		}
	}
	return -1
}

func isEnvPtr(t types.Type, env *types.TypeName) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj() == env
}

// identVar resolves a (possibly parenthesized) identifier expression to
// its variable, nil otherwise.
func identVar(info *types.Info, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// calleeNamed reports a syntactic call to a function or method with the
// given name (covers interface dispatch, where there is no static node).
func calleeNamed(call *ast.CallExpr, name string) bool {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name == name
	case *ast.SelectorExpr:
		return f.Sel.Name == name
	}
	return false
}

// inspectSkipLits visits every call expression under n outside nested
// function literals.
func inspectSkipLits(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// paramName renders the tracked parameter for diagnostics.
func paramName(v *types.Var) string {
	if v.Name() == "" {
		return "_"
	}
	return v.Name()
}
