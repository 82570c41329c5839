package lint

// This file is the intraprocedural dataflow layer the semantic analyzers
// build on: the function-body walker, a per-function control-flow graph
// over go/ast, a generic forward worklist solver, the one set lattice its
// clients share, and reaching definitions. durable's fsync-before-rename
// check (durable.go) is a direct forwardFlow client. It is deliberately
// stdlib-only — no golang.org/x/tools — matching the loader's
// zero-dependency contract.
//
// Precision notes. Blocks hold "element" nodes: simple statements and the
// sub-expressions of control statements, in evaluation order. Function
// literals are opaque to the enclosing function's flow (a closure may run on
// another goroutine, so its effects must not leak into the caller's facts);
// analyzers that care about closure bodies build a separate CFG per literal.
// A `range` statement contributes a synthesized AssignStmt (key, value :=
// X) to the loop head so the key/value definitions recur per iteration.
// Unknown or panicking control flow degrades to straight-line, which is the
// conservative direction for the must-analyses built here.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A funcBody is one function body as the per-function analyses see it: a
// declaration's own body, or the body of a literal nested in one. Literals
// are separate bodies because a closure may run on another goroutine, so
// its flow must not mix with the enclosing function's.
type funcBody struct {
	file *ast.File
	decl *ast.FuncDecl  // the enclosing declaration
	lit  *ast.FuncLit   // non-nil when this is a literal's body
	recv *ast.FieldList // the receiver; nil for literals
	typ  *ast.FuncType
	body *ast.BlockStmt

	reach *reaching // built on first use by reaching
}

// reaching returns the body's reaching definitions, solved on first use.
func (fb *funcBody) reaching(info *types.Info) *reaching {
	if fb.reach == nil {
		fb.reach = newReaching(info, fb.recv, fb.typ, fb.body)
	}
	return fb.reach
}

// eachFuncBody calls f for every function body in u's non-test files: each
// declaration's body, then every literal nested in it at any depth.
func eachFuncBody(u *Package, f func(*funcBody)) {
	for _, file := range u.nonTestFiles() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f(&funcBody{file: file, decl: fd, recv: fd.Recv, typ: fd.Type, body: fd.Body})
			inspectFuncLits(fd.Body, func(lit *ast.FuncLit) {
				f(&funcBody{file: file, decl: fd, lit: lit, typ: lit.Type, body: lit.Body})
			})
		}
	}
}

// inspectFuncLits calls f for every function literal under root, including
// literals nested in other literals.
func inspectFuncLits(root ast.Node, f func(*ast.FuncLit)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			f(lit)
		}
		return true
	})
}

// A cfgBlock is one straight-line run of element nodes with successor edges.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
}

// A funcCFG is the control-flow graph of one function body. blocks[0] is the
// entry block; exit is the single synthetic exit every return reaches.
type funcCFG struct {
	blocks []*cfgBlock
	exit   *cfgBlock
}

// loopCtx tracks where break/continue jump inside the innermost loops,
// switches, and selects. cont is nil for switch/select contexts (continue
// skips them).
type loopCtx struct {
	brk   *cfgBlock
	cont  *cfgBlock
	label string
}

type cfgBuilder struct {
	g     *funcCFG
	cur   *cfgBlock // nil after a terminating statement (dead code follows)
	loops []loopCtx
	// label bookkeeping for goto: name → target block, plus blocks waiting
	// for a label not yet seen (forward goto).
	labels  map[string]*cfgBlock
	pending map[string][]*cfgBlock
	// nextLabel names the loop/switch started by the labeled statement being
	// built, so `break L` / `continue L` resolve.
	nextLabel string
}

// buildCFG constructs the CFG for a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{
		g:       &funcCFG{},
		labels:  make(map[string]*cfgBlock),
		pending: make(map[string][]*cfgBlock),
	}
	b.cur = b.newBlock()
	b.g.exit = &cfgBlock{}
	b.stmtList(body.List)
	b.link(b.cur, b.g.exit)
	b.g.blocks = append(b.g.blocks, b.g.exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// link adds an edge from src to dst, tolerating a nil src (dead code).
func (b *cfgBuilder) link(src, dst *cfgBlock) {
	if src == nil {
		return
	}
	src.succs = append(src.succs, dst)
}

// add appends an element node to the current block. After a terminator the
// current block is nil; a fresh unreachable block keeps later elements
// addressable without wiring them into the flow.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being entered.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(st.List)
	case *ast.ExprStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.AssignStmt,
		*ast.DeclStmt, *ast.DeferStmt, *ast.GoStmt:
		b.add(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.exit)
		b.cur = nil
	case *ast.LabeledStmt:
		target := b.newBlock()
		b.link(b.cur, target)
		b.cur = target
		b.labels[st.Label.Name] = target
		for _, w := range b.pending[st.Label.Name] {
			b.link(w, target)
		}
		delete(b.pending, st.Label.Name)
		b.nextLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.nextLabel = ""
	case *ast.BranchStmt:
		b.branch(st)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st)
	case *ast.RangeStmt:
		b.rangeStmt(st)
	case *ast.SwitchStmt:
		b.stmtIfAny(st.Init)
		b.add(st.Tag)
		b.switchBody(st.Body, nil)
	case *ast.TypeSwitchStmt:
		b.stmtIfAny(st.Init)
		b.add(st.Assign)
		b.switchBody(st.Body, st.Assign)
	case *ast.SelectStmt:
		b.selectStmt(st)
	default:
		// Anything unrecognized is treated as a straight-line element.
		b.add(s)
	}
}

func (b *cfgBuilder) stmtIfAny(s ast.Stmt) {
	if s != nil {
		b.stmt(s)
	}
}

func (b *cfgBuilder) branch(st *ast.BranchStmt) {
	b.add(st)
	name := ""
	if st.Label != nil {
		name = st.Label.Name
	}
	switch st.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if name == "" || b.loops[i].label == name {
				b.link(b.cur, b.loops[i].brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].cont != nil && (name == "" || b.loops[i].label == name) {
				b.link(b.cur, b.loops[i].cont)
				break
			}
		}
	case token.GOTO:
		if target, ok := b.labels[name]; ok {
			b.link(b.cur, target)
		} else if b.cur != nil {
			b.pending[name] = append(b.pending[name], b.cur)
		}
	case token.FALLTHROUGH:
		// Wired by switchBody, which knows the next clause's block.
		b.cur = nil
		return
	}
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	b.stmtIfAny(st.Init)
	b.add(st.Cond)
	cond := b.cur
	done := &cfgBlock{}

	thenB := b.newBlock()
	b.link(cond, thenB)
	b.cur = thenB
	b.stmt(st.Body)
	b.link(b.cur, done)

	if st.Else != nil {
		elseB := b.newBlock()
		b.link(cond, elseB)
		b.cur = elseB
		b.stmt(st.Else)
		b.link(b.cur, done)
	} else {
		b.link(cond, done)
	}
	b.g.blocks = append(b.g.blocks, done)
	b.cur = done
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt) {
	label := b.takeLabel()
	b.stmtIfAny(st.Init)
	head := b.newBlock()
	b.link(b.cur, head)
	b.cur = head
	b.add(st.Cond)

	done := b.newBlock()
	post := b.newBlock()
	if st.Cond != nil {
		b.link(head, done)
	}
	body := b.newBlock()
	b.link(head, body)

	b.loops = append(b.loops, loopCtx{brk: done, cont: post, label: label})
	b.cur = body
	b.stmt(st.Body)
	b.link(b.cur, post)
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = post
	b.stmtIfAny(st.Post)
	b.link(b.cur, head)
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt) {
	label := b.takeLabel()
	// X is evaluated once, before the loop.
	b.add(st.X)
	head := b.newBlock()
	b.link(b.cur, head)
	b.cur = head
	// Key/value are (re)defined every iteration: synthesize the assignment
	// so reaching-definitions sees a fresh def per trip around the loop.
	var lhs []ast.Expr
	if st.Key != nil {
		lhs = append(lhs, st.Key)
	}
	if st.Value != nil {
		lhs = append(lhs, st.Value)
	}
	if len(lhs) > 0 {
		b.add(&ast.AssignStmt{Lhs: lhs, TokPos: st.For, Tok: st.Tok, Rhs: []ast.Expr{st.X}})
	}

	body := b.newBlock()
	done := b.newBlock()
	b.link(head, body)
	b.link(head, done)

	b.loops = append(b.loops, loopCtx{brk: done, cont: head, label: label})
	b.cur = body
	b.stmt(st.Body)
	b.link(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = done
}

// switchBody wires the case clauses of a switch or type switch. Each
// clause's guard expressions and body share one block; fallthrough jumps to
// the next clause's block.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, _ ast.Stmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock()
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	caseBlocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		caseBlocks[i] = b.newBlock()
		b.link(head, caseBlocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(head, done)
	}
	b.loops = append(b.loops, loopCtx{brk: done, label: label})
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for j, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == len(cc.Body)-1 {
				fallsThrough = true
				if i+1 < len(caseBlocks) {
					b.link(b.cur, caseBlocks[i+1])
				}
				b.cur = nil
				continue
			}
			b.stmt(s)
		}
		if !fallsThrough {
			b.link(b.cur, done)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock()
	b.loops = append(b.loops, loopCtx{brk: done, label: label})
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.link(head, blk)
		b.cur = blk
		b.stmtIfAny(cc.Comm)
		b.stmtList(cc.Body)
		b.link(b.cur, done)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = done
}

// inspectShallow walks n like ast.Inspect but does not descend into function
// literals: a closure's body belongs to its own flow, not the enclosing
// function's.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}

// forwardFlow solves a forward dataflow problem over g with a worklist,
// then replays the fixpoint calling visit(node, factBefore) for every
// element of every reachable block. entry seeds the entry block; transfer
// must be pure (it is re-applied during the replay); join merges facts where
// edges meet; equal bounds the iteration.
//
// It returns the fact flowing into the synthetic exit block and whether the
// exit is reachable at all (an infinite loop leaves it unreached, in which
// case the zero fact comes back). Callers that only need the per-element
// replay ignore the return values.
func forwardFlow[F any](g *funcCFG, entry F,
	transfer func(F, ast.Node) F,
	join func(F, F) F,
	equal func(F, F) bool,
	visit func(ast.Node, F),
) (F, bool) {
	var zero F
	if len(g.blocks) == 0 {
		return zero, false
	}
	in := make(map[*cfgBlock]F, len(g.blocks))
	seen := make(map[*cfgBlock]bool, len(g.blocks))
	in[g.blocks[0]] = entry
	seen[g.blocks[0]] = true
	work := []*cfgBlock{g.blocks[0]}
	queued := map[*cfgBlock]bool{g.blocks[0]: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		f := in[blk]
		for _, n := range blk.nodes {
			f = transfer(f, n)
		}
		for _, s := range blk.succs {
			var nf F
			if !seen[s] {
				nf = f
			} else {
				nf = join(in[s], f)
				if equal(nf, in[s]) {
					continue
				}
			}
			in[s] = nf
			seen[s] = true
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	if visit != nil {
		for _, blk := range g.blocks {
			if !seen[blk] {
				continue
			}
			f := in[blk]
			for _, n := range blk.nodes {
				visit(n, f)
				f = transfer(f, n)
			}
		}
	}
	return in[g.exit], seen[g.exit]
}

// sortedKeys returns m's keys in sorted order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- The set lattice ----

// A setFact is the lattice element of a must-analysis: a finite map from a
// key (a synced file) to the witness that put it there (a position).
// Facts are persistent — with copies before mutating — because forwardFlow
// holds the same fact on several edges. The join is intersect (the key
// holds on every path into the point).
type setFact[K comparable, V comparable] map[K]V

func (s setFact[K, V]) with(k K, v V) setFact[K, V] {
	if have, ok := s[k]; ok && have == v {
		return s
	}
	n := make(setFact[K, V], len(s)+1)
	for sk, sv := range s {
		n[sk] = sv
	}
	n[k] = v
	return n
}

// intersect keeps s's witness for the keys both sides hold.
func (s setFact[K, V]) intersect(b setFact[K, V]) setFact[K, V] {
	n := make(setFact[K, V])
	for k, v := range s {
		if _, ok := b[k]; ok {
			n[k] = v
		}
	}
	return n
}

func (s setFact[K, V]) equal(b setFact[K, V]) bool {
	if len(s) != len(b) {
		return false
	}
	for k, v := range s {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ---- Reaching definitions ----

// A defSite is one definition of a variable that may reach a use.
type defSite struct {
	// site is the defining node: an AssignStmt (possibly synthesized from a
	// range clause), DeclStmt, IncDecStmt, or — for parameters — the
	// parameter's *ast.Ident.
	site ast.Node
	// rhs is the defining expression when it is uniquely attributable (the
	// matching right-hand side, or the shared call of a multi-value
	// assignment); nil when unknown.
	rhs ast.Expr
	// param marks the function-entry definition of a parameter.
	param bool
}

// defFact maps each variable to the set of definitions that may reach the
// current point. Facts are persistent: transfer copies before mutating.
type defFact map[types.Object][]defSite

// reaching computes reaching definitions for one function body and answers
// queries at element granularity.
type reaching struct {
	before map[ast.Node]defFact
}

// defsAt returns the definitions of obj that may reach the given element
// node (a node stored in a CFG block — a statement, not a sub-expression).
func (r *reaching) defsAt(element ast.Node, obj types.Object) []defSite {
	return r.before[element][obj]
}

// elementOf climbs from n to the enclosing CFG element the solver keyed its
// facts on, or nil.
func (r *reaching) elementOf(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for cur := n; cur != nil; cur = parents[cur] {
		if _, ok := r.before[cur]; ok {
			return cur
		}
	}
	return nil
}

// newReaching solves reaching definitions over body. recv and params seed
// the entry fact; info resolves identifiers.
func newReaching(info *types.Info, recv *ast.FieldList, ft *ast.FuncType, body *ast.BlockStmt) *reaching {
	g := buildCFG(body)
	entry := defFact{}
	seedParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					entry[obj] = []defSite{{site: name, param: true}}
				}
			}
		}
	}
	seedParams(recv)
	if ft != nil {
		seedParams(ft.Params)
		seedParams(ft.Results)
	}

	r := &reaching{before: make(map[ast.Node]defFact)}
	transfer := func(f defFact, n ast.Node) defFact {
		return defTransfer(info, f, n)
	}
	forwardFlow(g, entry, transfer, joinDefs, equalDefs,
		func(n ast.Node, f defFact) {
			if _, dup := r.before[n]; !dup {
				r.before[n] = f
			}
		})
	return r
}

// defTransfer applies the kill/gen effect of one element node. Effects
// hidden inside function literals are deliberately ignored (see the file
// comment); everything else falls through unchanged.
func defTransfer(info *types.Info, f defFact, n ast.Node) defFact {
	gen := func(id *ast.Ident, site ast.Node, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		nf := make(defFact, len(f)+1)
		for k, v := range f {
			nf[k] = v
		}
		nf[obj] = []defSite{{site: site, rhs: rhs}}
		f = nf
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if len(st.Rhs) == len(st.Lhs) {
				rhs = st.Rhs[i]
			} else if len(st.Rhs) == 1 {
				// Multi-value form: every lhs is defined by the one call
				// (or range clause, where Rhs is the ranged operand).
				rhs = st.Rhs[0]
			}
			gen(id, st, rhs)
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return f
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				} else if len(vs.Values) == 1 {
					rhs = vs.Values[0]
				}
				gen(name, st, rhs)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok {
			gen(id, st, nil)
		}
	}
	return f
}

func joinDefs(a, b defFact) defFact {
	out := make(defFact, len(a)+len(b))
	for obj, defs := range a {
		out[obj] = defs
	}
	for obj, defs := range b {
		if existing, ok := out[obj]; ok {
			merged := existing
			have := make(map[ast.Node]bool, len(existing))
			for _, d := range existing {
				have[d.site] = true
			}
			for _, d := range defs {
				if !have[d.site] {
					merged = append(merged[:len(merged):len(merged)], d)
				}
			}
			out[obj] = merged
		} else {
			out[obj] = defs
		}
	}
	return out
}

func equalDefs(a, b defFact) bool {
	if len(a) != len(b) {
		return false
	}
	for obj, da := range a {
		db, ok := b[obj]
		if !ok || len(da) != len(db) {
			return false
		}
		sites := make(map[ast.Node]bool, len(da))
		for _, d := range da {
			sites[d.site] = true
		}
		for _, d := range db {
			if !sites[d.site] {
				return false
			}
		}
	}
	return true
}
