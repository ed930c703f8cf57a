// Package statemachine implements the checkpoint-lifecycle analyzer.
// The paper's protocol allows exactly two moves: a normal process takes
// a tentative checkpoint (Normal -> Tentative), and a tentative process
// finalizes it (Tentative -> Normal); rollback recovery re-enters
// Normal from anywhere. The transition table is declared on the state
// type itself:
//
//	// Status is the checkpoint lifecycle state.
//	//
//	//ocsml:state stat Normal->Tentative
//	//ocsml:state stat Tentative->Normal
//	//ocsml:state stat *->Normal
//	type Status int
//
// where `stat` names the struct field holding the state and each
// directive declares one legal from->to edge (`*` = any from-state).
// The analyzer then proves every assignment to a field of that name and
// type is a declared transition:
//
//   - the assigned value must be a named constant of the state type;
//   - a forward analysis tracks the possible states of each receiver's
//     field (a bitset; Top = all states), narrowing through `if x.stat
//     == C` / `!= C` guards — including the synthesized guards of
//     switch cases and the fall-through of panic-terminated arms — and
//     resetting to Top across any static call that may (transitively)
//     write a state field;
//   - an assignment is legal when the transition from every still-
//     possible state to the written constant is declared.
//
// Interface calls are assumed state-preserving: protocols are single-
// threaded state machines and their effect interfaces (Env) never call
// back into protocol state; the closures handed to them are analyzed
// as their own bodies with all states possible.
package statemachine

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ocsml/internal/analysis/vetkit"
)

// Analyzer is the statemachine analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "statemachine",
	Doc:  "every write to an //ocsml:state-annotated field is a declared lifecycle transition",
	Run:  run,
}

// A table is the declared transition relation of one (type, field).
type table struct {
	typ   *types.TypeName
	field string
	names map[int64]string // constant value -> name
	all   uint64           // mask of every declared state
	trans map[int64]uint64 // to-value -> allowed-from mask
	star  map[int64]bool   // to-values reachable from any state
	// insertEnd is the end of the table's last //ocsml:state directive —
	// the anchor where the suggested fix appends a new edge stub.
	insertEnd token.Pos
}

// A tableErr is a malformed directive, reported by the pass that owns
// the declaring package.
type tableErr struct {
	pkg *types.Package
	pos token.Pos
	msg string
}

type progFacts struct {
	tables   []*table
	errs     []tableErr
	mayWrite map[*types.Func]bool
}

var cache = map[*vetkit.Program]*progFacts{}

func run(pass *vetkit.Pass) error {
	pf := facts(pass.Program)
	for _, e := range pf.errs {
		if e.pkg == pass.Pkg {
			pass.Reportf(e.pos, "%s", e.msg)
		}
	}
	if len(pf.tables) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := pass.Program.CallGraph().Node(obj)
			if node == nil {
				continue
			}
			a := &analysis{pass: pass, pf: pf, node: node}
			a.checkBody(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.checkBody(lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// facts parses every transition table and computes the may-write set.
func facts(program *vetkit.Program) *progFacts {
	if pf, ok := cache[program]; ok {
		return pf
	}
	pf := &progFacts{mayWrite: map[*types.Func]bool{}}
	cache[program] = pf
	for _, pkg := range program.Packages {
		for _, f := range pkg.Files {
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
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					pf.parseTable(pkg, ts, doc)
				}
			}
		}
	}
	if len(pf.tables) > 0 {
		pf.computeMayWrite(program)
	}
	return pf
}

// parseTable reads the //ocsml:state directives of one type declaration.
func (pf *progFacts) parseTable(pkg *vetkit.Package, ts *ast.TypeSpec, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	type edge struct {
		from, to string
		pos, end token.Pos
	}
	byField := map[string][]edge{}
	var order []string
	for _, dir := range vetkit.DocDirectives(doc) {
		if dir.Name != "state" {
			continue
		}
		fields := strings.Fields(dir.Arg)
		bad := func(msg string) {
			pf.errs = append(pf.errs, tableErr{pkg.Types, dir.Pos, msg})
		}
		if len(fields) != 2 {
			bad(fmt.Sprintf("malformed //ocsml:state directive %q: want //ocsml:state <field> <from>-><to>", dir.Arg))
			continue
		}
		from, to, ok := strings.Cut(fields[1], "->")
		if !ok || from == "" || to == "" {
			bad(fmt.Sprintf("malformed //ocsml:state transition %q: want <from>-><to> (\"*\" = any from-state)", fields[1]))
			continue
		}
		if _, seen := byField[fields[0]]; !seen {
			order = append(order, fields[0])
		}
		byField[fields[0]] = append(byField[fields[0]], edge{from, to, dir.Pos, dir.End})
	}
	if len(byField) == 0 {
		return
	}
	obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	// Enum constants: package-level constants of the annotated type.
	names := map[int64]string{}
	byName := map[string]int64{}
	var all uint64
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), obj.Type()) {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok || v < 0 || v > 63 {
			pf.errs = append(pf.errs, tableErr{pkg.Types, c.Pos(), fmt.Sprintf("state constant %s = %s is outside the analyzable range [0, 63]", name, c.Val())})
			continue
		}
		names[v] = name
		byName[name] = v
		all |= 1 << uint(v)
	}
	for _, field := range order {
		t := &table{typ: obj, field: field, names: names, all: all,
			trans: map[int64]uint64{}, star: map[int64]bool{}}
		for _, e := range byField[field] {
			t.insertEnd = e.end
			to, ok := byName[e.to]
			if !ok {
				pf.errs = append(pf.errs, tableErr{pkg.Types, e.pos, fmt.Sprintf("//ocsml:state names unknown %s constant %q", obj.Name(), e.to)})
				continue
			}
			if e.from == "*" {
				t.star[to] = true
				continue
			}
			from, ok := byName[e.from]
			if !ok {
				pf.errs = append(pf.errs, tableErr{pkg.Types, e.pos, fmt.Sprintf("//ocsml:state names unknown %s constant %q", obj.Name(), e.from)})
				continue
			}
			t.trans[to] |= 1 << uint(from)
		}
		pf.tables = append(pf.tables, t)
	}
}

// computeMayWrite closes direct state-field writers over the static
// callgraph (closure call sites included: the write may happen when the
// callee's closure runs).
func (pf *progFacts) computeMayWrite(program *vetkit.Program) {
	funcs := program.CallGraph().Funcs()
	direct := func(n *vetkit.FuncNode) bool {
		found := false
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok {
				return !found
			}
			for _, lhs := range as.Lhs {
				if t, _ := pf.stateSelector(n.Pkg.Info, lhs); t != nil {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for _, n := range funcs {
		if direct(n) {
			pf.mayWrite[n.Obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range funcs {
			if pf.mayWrite[n.Obj] {
				continue
			}
			for _, site := range n.Calls {
				if site.Callee != nil && pf.mayWrite[site.Callee.Obj] {
					pf.mayWrite[n.Obj] = true
					changed = true
					break
				}
			}
		}
	}
}

// stateSelector matches expr against every table: a selector of an
// annotated state field. The returned var is the selector's base
// identifier (nil when the base is not a plain identifier).
func (pf *progFacts) stateSelector(info *types.Info, expr ast.Expr) (*table, *types.Var) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	field, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return nil, nil
	}
	for _, t := range pf.tables {
		if field.Name() == t.field && types.Identical(field.Type(), t.typ.Type()) {
			var base *types.Var
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					base = v
				}
			}
			return t, base
		}
	}
	return nil, nil
}

// fact maps a receiver variable to the bitset of states its field may
// hold; an absent key is Top (all states). Merge is union, so a state
// possible on any inbound path stays possible.
type fact map[*types.Var]uint64

func cloneFact(f fact) fact {
	out := make(fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func mergeFact(a, b fact) fact {
	out := fact{}
	for v, ma := range a {
		if mb, ok := b[v]; ok {
			out[v] = ma | mb
		}
		// Absent in b = Top there: drop the key (Top) in the merge.
	}
	return out
}

func equalFact(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ma := range a {
		mb, ok := b[v]
		if !ok || ma != mb {
			return false
		}
	}
	return true
}

type analysis struct {
	pass *vetkit.Pass
	pf   *progFacts
	node *vetkit.FuncNode
}

func (a *analysis) checkBody(body *ast.BlockStmt) {
	sites := map[*ast.CallExpr]*vetkit.CallSite{}
	for _, s := range a.node.Calls {
		sites[s.Call] = s
	}
	g := vetkit.NewCFG(body)
	transfer := func(b *vetkit.Block, in fact) fact { return a.transfer(sites, b, in, false) }
	in := vetkit.Forward(g, fact{}, transfer, mergeFact, equalFact)
	for _, b := range g.Blocks {
		entry, ok := in[b]
		if !ok {
			continue
		}
		a.transfer(sites, b, entry, true)
	}
}

func (a *analysis) transfer(sites map[*ast.CallExpr]*vetkit.CallSite, b *vetkit.Block, in fact, report bool) fact {
	f := cloneFact(in)
	for _, g := range b.Guards {
		a.narrow(g.Cond, g.True, f)
	}
	for _, n := range b.Nodes {
		// Calls evaluated by this node run before control moves on; any
		// may-writer invalidates everything we know. Closures merely
		// created here do not run.
		reset := false
		inspectSkipLits(n, func(call *ast.CallExpr) {
			if site, ok := sites[call]; ok && site.Callee != nil && a.pf.mayWrite[site.Callee.Obj] {
				reset = true
			}
		})
		as, _ := n.(*ast.AssignStmt)
		if reset {
			// The write below still applies after the reset: RHS calls
			// run before the store.
			for v := range f {
				delete(f, v)
			}
		}
		if as != nil {
			a.assign(as, f, report)
		}
	}
	return f
}

// assign checks every state-field write in one assignment.
func (a *analysis) assign(as *ast.AssignStmt, f fact, report bool) {
	for i, lhs := range as.Lhs {
		t, base := a.pf.stateSelector(a.pass.TypesInfo, lhs)
		if t == nil {
			continue
		}
		cur := t.all
		if base != nil {
			if m, ok := f[base]; ok {
				cur = m
			}
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		to, toName, ok := a.constValue(t, rhs)
		if !ok {
			if report {
				a.pass.Reportf(lhs.Pos(), "write to state field %s.%s is not a named %s constant: every write must be a declared //ocsml:state transition", t.typ.Name(), t.field, t.typ.Name())
			}
			if base != nil {
				delete(f, base) // unknown value: Top
			}
			continue
		}
		var illegal uint64
		if !t.star[to] {
			illegal = cur &^ t.trans[to]
		}
		if report && illegal != 0 {
			a.pass.Report(vetkit.Diagnostic{
				Pos: lhs.Pos(),
				Message: fmt.Sprintf("transition %s->%s of state field %s.%s is not declared by //ocsml:state (guard the write or declare the edge)",
					t.stateNames(illegal), toName, t.typ.Name(), t.field),
				Fix: t.edgeStubFix(illegal, toName),
			})
		}
		if base != nil {
			f[base] = 1 << uint(to)
		}
	}
}

// constValue resolves rhs to a declared state constant of t's type.
func (a *analysis) constValue(t *table, rhs ast.Expr) (int64, string, bool) {
	if rhs == nil {
		return 0, "", false
	}
	tv, ok := a.pass.TypesInfo.Types[rhs]
	if !ok || tv.Value == nil {
		return 0, "", false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return 0, "", false
	}
	name, ok := t.names[v]
	return v, name, ok
}

// narrow refines the fact through one branch condition.
func (a *analysis) narrow(cond ast.Expr, truth bool, f fact) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			a.narrow(e.X, !truth, f)
		}
	case *ast.BinaryExpr:
		switch {
		case e.Op == token.LAND && truth:
			a.narrow(e.X, true, f)
			a.narrow(e.Y, true, f)
		case e.Op == token.LOR && !truth:
			a.narrow(e.X, false, f)
			a.narrow(e.Y, false, f)
		case e.Op == token.EQL, e.Op == token.NEQ:
			t, base, val, ok := a.comparison(e)
			if !ok || base == nil {
				return
			}
			cur := t.all
			if m, ok := f[base]; ok {
				cur = m
			}
			if (e.Op == token.EQL) == truth {
				cur &= 1 << uint(val)
			} else {
				cur &^= 1 << uint(val)
			}
			f[base] = cur
		}
	}
}

// comparison matches `x.field == Const` with the operands in either
// order.
func (a *analysis) comparison(e *ast.BinaryExpr) (*table, *types.Var, int64, bool) {
	info := a.pass.TypesInfo
	try := func(selSide, constSide ast.Expr) (*table, *types.Var, int64, bool) {
		t, base := a.pf.stateSelector(info, selSide)
		if t == nil {
			return nil, nil, 0, false
		}
		v, _, ok := a.constValue(t, constSide)
		if !ok {
			return nil, nil, 0, false
		}
		return t, base, v, true
	}
	if t, b, v, ok := try(e.X, e.Y); ok {
		return t, b, v, ok
	}
	return try(e.Y, e.X)
}

// maskNames renders a mask of states as a sorted-by-value name list.
func (t *table) maskNames(mask uint64) []string {
	var vals []int64
	for v := range t.names {
		if mask&(1<<uint(v)) != 0 {
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var names []string
	for _, v := range vals {
		names = append(names, t.names[v])
	}
	return names
}

// stateNames renders a mask of states for diagnostics.
func (t *table) stateNames(mask uint64) string {
	names := t.maskNames(mask)
	if len(names) == 0 {
		return "?"
	}
	return strings.Join(names, "|")
}

// edgeStubFix builds the suggested fix for an undeclared transition: a
// //ocsml:state stub per still-possible from-state, appended after the
// table's last declared edge. The stub declares intent explicitly — the
// developer reviews and keeps (or deletes) each edge.
func (t *table) edgeStubFix(illegal uint64, toName string) *vetkit.SuggestedFix {
	if !t.insertEnd.IsValid() {
		return nil
	}
	var text strings.Builder
	for _, from := range t.maskNames(illegal) {
		fmt.Fprintf(&text, "\n//ocsml:state %s %s->%s", t.field, from, toName)
	}
	if text.Len() == 0 {
		return nil
	}
	return &vetkit.SuggestedFix{
		Message: fmt.Sprintf("declare the %s->%s edge(s) on the %s table", t.stateNames(illegal), toName, t.typ.Name()),
		Edits:   []vetkit.TextEdit{{Pos: t.insertEnd, End: t.insertEnd, NewText: text.String()}},
	}
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
