// Package lockdiscipline implements the locking-convention analyzer.
// The transport, fsstore and metrics packages share one
// convention, previously enforced only by review:
//
//   - a function whose name ends in "Locked" (or whose doc comment
//     carries //ocsml:locked) asserts its caller already holds the
//     receiver's mutex — so such a function must not acquire that mutex
//     itself (instant deadlock on sync.Mutex), and every call to one
//     must be made with the lock visibly held;
//   - a struct field annotated //ocsml:guardedby <mutexField> may only
//     be accessed while that mutex is held.
//
// "Visibly held" is a lexical judgment within one function body: the
// access must follow a <base>.<mu>.Lock() / RLock() with no intervening
// non-deferred Unlock on the same mutex, or the enclosing function must
// itself be *Locked / //ocsml:locked on the same receiver. Two
// refinements keep the lexical model honest on real code:
//
//   - an Unlock inside a block that terminates (its statement list ends
//     in return, panic, break or continue) only releases the lock for
//     that block — the fall-through path after the block still holds it
//     (the `if done { mu.Unlock(); return }` idiom);
//   - a function literal starts from the lock state at its definition
//     point, which accepts closures invoked synchronously under the
//     lock (sort.Search, sort.Slice); a closure that instead escapes to
//     another goroutine and re-locks is also accepted, because Lock on
//     an already-held mutex is not reported outside *Locked scopes.
//
// Accesses through a value constructed in the same function (a
// composite literal that has not escaped yet) are exempt — constructors
// initialize guarded fields before the value is shared. A deliberate
// exception carries //ocsml:nolock <why> on the access line or the
// line above.
//
// This is a lint, not a proof: it cannot see lock state across call
// boundaries (that is exactly what the *Locked naming convention
// re-establishes) and treats RLock as sufficient for writes. The race
// detector covers what the convention cannot.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ocsml/internal/analysis/vetkit"
)

// Analyzer is the lockdiscipline analysis.
var Analyzer = &vetkit.Analyzer{
	Name: "lockdiscipline",
	Doc:  "enforce the *Locked naming convention and //ocsml:guardedby field annotations",
	Run:  run,

	Directives: []string{"guardedby", "locked", "nolock"},
}

// lockMethods classifies sync.Mutex / sync.RWMutex method names.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}
var unlockMethods = map[string]bool{
	"Unlock": true, "RUnlock": true,
}

const (
	evLock = iota
	evUnlock
	evGuardedAccess
	evLockedCall
	evSnapshot // entering a terminating block: save the held set
	evRestore  // leaving a terminating block: the fall-through path resumes from the snapshot
	evFuncLit  // a nested closure: check it against the current held set
)

type event struct {
	pos    token.Pos
	kind   int
	base   string // receiver path of the mutex or guarded value, e.g. "s" or "c.inner"
	mutex  string // mutex field name (evLock/evUnlock: the locked field; evGuardedAccess: the required guard)
	what   string // diagnostic subject (field or method name)
	defer_ bool
	lit    *ast.FuncLit // evFuncLit
}

func run(pass *vetkit.Pass) error {
	guarded := collectGuarded(pass)
	dirs := pass.Program.Directives()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := receiverName(fd)
			assumed := ""
			if strings.HasSuffix(fd.Name.Name, "Locked") || vetkit.CommentGroupHas(fd.Doc, "locked") {
				assumed = recv
			}
			checkScope(pass, dirs, guarded, fd.Body, scopeInfo{
				name:    fd.Name.Name,
				assumed: assumed,
			}, nil, nil)
		}
	}
	return nil
}

type scopeInfo struct {
	name    string
	assumed string // receiver name assumed locked ("" = none)
	closure bool   // scope is a FuncLit: inherit state, but never report self-deadlock
}

// collectGuarded builds the program-wide registry of annotated fields:
// field object -> name of the mutex field guarding it.
func collectGuarded(pass *vetkit.Pass) map[types.Object]string {
	out := map[types.Object]string{}
	for _, pkg := range pass.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := guardDirective(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							out[obj] = mu
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// guardDirective extracts the //ocsml:guardedby argument from a struct
// field's doc or trailing comment (default mutex name: "mu").
func guardDirective(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if rest, ok := strings.CutPrefix(text, "ocsml:guardedby"); ok {
				if arg := strings.TrimSpace(rest); arg != "" {
					return arg
				}
				return "mu"
			}
		}
	}
	return ""
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// checkScope analyzes one function body (FuncDecl or FuncLit). Nested
// literals are deferred to evFuncLit events and checked recursively with
// the lock state at their definition point. initHeld and initConstructed
// seed a closure's state from its enclosing scope.
func checkScope(pass *vetkit.Pass, dirs *vetkit.Directives, guarded map[types.Object]string, body *ast.BlockStmt, scope scopeInfo, initHeld map[string]int, initConstructed map[string]bool) {
	var events []event
	constructed := map[string]bool{} // locals built from composite literals in this scope
	for k, v := range initConstructed {
		constructed[k] = v
	}

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			events = append(events, event{pos: n.Pos(), kind: evFuncLit, lit: n})
			return // walked later, with the held set at this point
		case *ast.BlockStmt:
			if terminates(n.List) {
				events = append(events, event{pos: n.Lbrace, kind: evSnapshot})
				events = append(events, event{pos: n.End(), kind: evRestore})
			}
		case *ast.CaseClause:
			if terminates(n.Body) {
				events = append(events, event{pos: n.Colon, kind: evSnapshot})
				events = append(events, event{pos: n.End(), kind: evRestore})
			}
		case *ast.CommClause:
			if terminates(n.Body) {
				events = append(events, event{pos: n.Colon, kind: evSnapshot})
				events = append(events, event{pos: n.End(), kind: evRestore})
			}
		case *ast.DeferStmt:
			walk(n.Call, true)
			return
		case *ast.AssignStmt:
			// x := &T{...} / T{...} / new(T): x has not escaped yet.
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if isFreshValue(n.Rhs[i]) {
						constructed[id.Name] = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				switch {
				case lockMethods[name] || unlockMethods[name]:
					if base, mu, ok := mutexOperand(pass, sel.X); ok {
						kind := evLock
						if unlockMethods[name] {
							kind = evUnlock
						}
						events = append(events, event{
							pos: n.Pos(), kind: kind, base: base, mutex: mu, defer_: inDefer,
						})
					}
				case strings.HasSuffix(name, "Locked"):
					events = append(events, event{
						pos: n.Pos(), kind: evLockedCall,
						base: exprPath(sel.X), what: name,
					})
				}
			}
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil {
				if mu, ok := guarded[obj]; ok {
					events = append(events, event{
						pos: n.Sel.Pos(), kind: evGuardedAccess,
						base: exprPath(n.X), mutex: mu, what: obj.Name(),
					})
				}
			}
		}
		// Generic recursion over children.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			walk(child, inDefer)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt, false)
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]int{} // "base.mutex" -> depth
	for k, v := range initHeld {
		held[k] = v
	}
	var snapshots []map[string]int
	for _, ev := range events {
		key := ev.base + "." + ev.mutex
		switch ev.kind {
		case evSnapshot:
			snapshots = append(snapshots, cloneHeld(held))
		case evRestore:
			held = snapshots[len(snapshots)-1]
			snapshots = snapshots[:len(snapshots)-1]
		case evFuncLit:
			name := scope.name
			if !strings.HasSuffix(name, " (closure)") {
				name += " (closure)"
			}
			checkScope(pass, dirs, guarded, ev.lit.Body, scopeInfo{
				name: name, assumed: scope.assumed, closure: true,
			}, cloneHeld(held), constructed)
		case evLock:
			if ev.defer_ {
				continue
			}
			if scope.assumed != "" && ev.base == scope.assumed && !scope.closure {
				pass.Reportf(ev.pos, "%s is declared *Locked but acquires %s.%s itself: the caller already holds it (self-deadlock on sync.Mutex)", scope.name, ev.base, ev.mutex)
				continue
			}
			held[key]++
		case evUnlock:
			if ev.defer_ {
				continue // releases at return; lock stays held for the rest of the body
			}
			if held[key] > 0 {
				held[key]--
			}
		case evGuardedAccess:
			if ev.base == "" || constructed[rootIdent(ev.base)] {
				continue
			}
			if scope.assumed != "" && ev.base == scope.assumed {
				continue
			}
			if held[key] > 0 {
				continue
			}
			if dirs.Has(ev.pos, "nolock") {
				continue
			}
			pass.Reportf(ev.pos, "%s.%s is guarded by %s.%s, which is not held in %s: acquire the mutex, move the access into a *Locked helper, or annotate //ocsml:nolock <why>", ev.base, ev.what, ev.base, ev.mutex, scope.name)
		case evLockedCall:
			if ev.base == "" || constructed[rootIdent(ev.base)] {
				continue
			}
			if scope.assumed != "" && ev.base == scope.assumed {
				continue
			}
			if anyHeld(held, ev.base) {
				continue
			}
			if dirs.Has(ev.pos, "nolock") {
				continue
			}
			pass.Reportf(ev.pos, "%s.%s called without %s's mutex held in %s: *Locked methods require the caller to hold the lock", ev.base, ev.what, ev.base, scope.name)
		}
	}
}

func cloneHeld(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// terminates reports whether a statement list ends on a statement that
// leaves the enclosing block: return, break/continue/goto, or a call to
// panic. An Unlock inside such a list releases the lock only for that
// exit path, not for the code after the block.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func anyHeld(held map[string]int, base string) bool {
	for key, depth := range held {
		if depth > 0 && strings.HasPrefix(key, base+".") {
			return true
		}
	}
	return false
}

// mutexOperand decomposes the receiver of a Lock/Unlock call into
// (base path, mutex field name). It accepts `x.mu.Lock()` shapes where
// the operand is a selector to a sync.Mutex / sync.RWMutex (or any type
// embedding one), and `mu.Lock()` on a bare identifier.
func mutexOperand(pass *vetkit.Pass, x ast.Expr) (base, mutex string, ok bool) {
	if !isMutexType(pass, x) {
		return "", "", false
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return exprPath(x.X), x.Sel.Name, exprPath(x.X) != ""
	case *ast.Ident:
		return "", x.Name, true // package-level or local mutex: base is empty
	}
	return "", "", false
}

func isMutexType(pass *vetkit.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// exprPath renders a chain of identifiers ("c", "c.inner") or "" when
// the expression is anything more complex (an index, a call result) —
// such bases are not tracked.
func exprPath(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprPath(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.ParenExpr:
		return exprPath(x.X)
	}
	return ""
}

func rootIdent(path string) string {
	if i := strings.IndexByte(path, '.'); i >= 0 {
		return path[:i]
	}
	return path
}

// isFreshValue reports whether an expression constructs a brand-new
// value: a composite literal, &composite, or new(T).
func isFreshValue(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
