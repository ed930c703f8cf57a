package vetkit

import (
	"go/ast"
	"go/token"
)

// This file is vetkit's intraprocedural half of the interprocedural
// layer: a lightweight control-flow graph over the statements of one
// function body, and a generic forward dataflow solver over it. The
// graph is deliberately simple — basic blocks hold statement and
// expression nodes in evaluation order and edges follow Go's structured
// control flow.
//
// Known simplifications, acceptable for a linter over this codebase:
// goto ends its path (the repository has none); defer bodies run at
// their lexical position (analyzers treat reads inside closures as
// uses).

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first; Exit is the synthetic
	// block every return (and the fall-off-the-end path) feeds.
	Entry, Exit *Block
	// Blocks lists every block, Entry first, in creation order.
	Blocks []*Block
}

// A Block is one straight-line run of statements.
type Block struct {
	// Nodes holds statements and branch-condition expressions in
	// evaluation order.
	Nodes []ast.Node
	// Succs are the blocks control may reach next. A block that ends in
	// panic (or return, for non-Exit successors) has none.
	Succs []*Block
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Exit = &Block{}
	b.cfg.Entry = b.newBlock()
	cur := b.stmts(b.cfg.Entry, body.List)
	if cur != nil {
		b.edge(cur, b.cfg.Exit)
	}
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type loopFrame struct {
	label     string
	brk, cont *Block
}

type cfgBuilder struct {
	cfg   *CFG
	loops []loopFrame
	// pendingLabel names the next loop/switch for labeled break/continue.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// stmts threads the statement list through cur, returning the open block
// after the last statement (nil when control cannot fall through).
func (b *cfgBuilder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/panic/branch: park it in a
			// fresh block with no predecessors so its nodes still exist
			// for position-based lookups, then keep threading.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		next := b.stmt(cur, s.Stmt)
		b.pendingLabel = ""
		return next

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.target(label, true); t != nil {
				b.edge(cur, t)
			}
		case token.CONTINUE:
			if t := b.target(label, false); t != nil {
				b.edge(cur, t)
			}
		case token.GOTO:
			// No goto in the checked code; end the path conservatively.
		}
		// FALLTHROUGH is handled by the switch builder.
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		then := b.newBlock()
		b.edge(cur, then)
		after := b.newBlock()
		thenEnd := b.stmt(then, s.Body)
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			elseEnd := b.stmt(els, s.Else)
			if elseEnd == nil && thenEnd == nil {
				return nil
			}
			if elseEnd != nil {
				b.edge(elseEnd, after)
			}
			return after
		}
		b.edge(cur, after)
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body, after := b.newBlock(), b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.edge(head, body)
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
			cont.Nodes = append(cont.Nodes, s.Post)
			b.edge(cont, head)
		}
		b.pushLoop(after, cont)
		bodyEnd := b.stmt(body, s.Body)
		b.popLoop()
		if bodyEnd != nil {
			b.edge(bodyEnd, cont)
		}
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		// Only the range operand is evaluated at the head; appending the
		// whole statement would re-expose the body (already threaded into
		// its own blocks) to Inspect-based scans. Key/value writes are not
		// modeled.
		if s.X != nil {
			head.Nodes = append(head.Nodes, s.X)
		}
		b.edge(cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(after, head)
		bodyEnd := b.stmt(body, s.Body)
		b.popLoop()
		if bodyEnd != nil {
			b.edge(bodyEnd, head)
		}
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(cur, s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.clauseBodies(cur, s.Body)

	case *ast.SelectStmt:
		return b.clauseBodies(cur, s.Body)

	case *ast.DeferStmt, *ast.GoStmt, *ast.ExprStmt, *ast.AssignStmt,
		*ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		cur.Nodes = append(cur.Nodes, s)
		if terminates(s) {
			return nil
		}
		return cur

	default:
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchBody builds the clause graph of an expression switch.
func (b *cfgBuilder) switchBody(cur *Block, body *ast.BlockStmt) *Block {
	after := b.newBlock()
	var prevEnd *Block // fallthrough source
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		// Case expressions are evaluated at the dispatch point (reads in
		// them happen before any clause body runs).
		for _, e := range cc.List {
			cur.Nodes = append(cur.Nodes, e)
		}
		entry := b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(cur, entry)
		if prevEnd != nil {
			b.edge(prevEnd, entry)
			prevEnd = nil
		}
		b.pushSwitch(after)
		end := b.stmts(entry, cc.Body)
		b.popLoop()
		if end != nil {
			if n := len(cc.Body); n > 0 {
				if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					prevEnd = end
					continue
				}
			}
			b.edge(end, after)
		}
	}
	if !hasDefault || len(body.List) == 0 {
		b.edge(cur, after)
	}
	return after
}

// clauseBodies wires the clauses of a type switch or select: every
// clause is a successor of cur, every non-terminated clause feeds after.
func (b *cfgBuilder) clauseBodies(cur *Block, body *ast.BlockStmt) *Block {
	after := b.newBlock()
	hasDefault := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
				list = c.Body
			} else {
				list = append([]ast.Stmt{c.Comm}, c.Body...)
			}
		}
		entry := b.newBlock()
		b.edge(cur, entry)
		b.pushSwitch(after)
		end := b.stmts(entry, list)
		b.popLoop()
		if end != nil {
			b.edge(end, after)
		}
	}
	// A type switch without default can skip every clause; a select
	// without default always takes one, but the extra edge is harmless
	// for the may/must analyses built on top.
	if !hasDefault || len(body.List) == 0 {
		b.edge(cur, after)
	}
	return after
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.loops = append(b.loops, loopFrame{label: b.pendingLabel, brk: brk, cont: cont})
	b.pendingLabel = ""
}

func (b *cfgBuilder) pushSwitch(brk *Block) {
	b.loops = append(b.loops, loopFrame{label: b.pendingLabel, brk: brk})
	b.pendingLabel = ""
}

func (b *cfgBuilder) popLoop() { b.loops = b.loops[:len(b.loops)-1] }

func (b *cfgBuilder) target(label string, brk bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if label != "" && f.label != label {
			continue
		}
		if brk {
			return f.brk
		}
		if f.cont != nil {
			return f.cont
		}
		// continue does not bind to switch frames.
	}
	return nil
}

// terminates reports whether a simple statement ends its control path
// (a call to the panic builtin).
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// Forward runs a forward dataflow analysis over the CFG to a fixpoint
// and returns the fact holding on entry to each reachable block. The
// transfer function must be monotone and the fact lattice finite (both
// hold for the set- and bitset-valued facts the analyzers use).
func Forward[F any](g *CFG, entry F, transfer func(b *Block, in F) F, merge func(a, b F) F, equal func(a, b F) bool) map[*Block]F {
	in := map[*Block]F{g.Entry: entry}
	work := []*Block{g.Entry}
	inWork := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		out := transfer(blk, in[blk])
		for _, succ := range blk.Succs {
			cur, ok := in[succ]
			next := out
			if ok {
				next = merge(cur, out)
			}
			if !ok || !equal(cur, next) {
				in[succ] = next
				if !inWork[succ] {
					inWork[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}
