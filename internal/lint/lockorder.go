package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// LockOrder is the interprocedural deadlock analyzer. It runs the held-lock
// flow (heldLocks, which guardedby and sliceshare read too) to track which
// mutexes are held at every program point, resolves each mutex to a
// program-wide identity class
// ("pkg.Type.field" for struct fields, "pkg.var" for package-level vars),
// and derives three kinds of findings:
//
//   - Self-deadlocks on any CFG path: re-Lock of a mutex already
//     write-held, an RLock→Lock upgrade, or RLock while write-held — each
//     a guaranteed single-goroutine deadlock on Go's non-reentrant locks.
//
//   - Locks held across statically-known blocking points: channel sends
//     and receives (unless inside a select with a default clause),
//     sync.WaitGroup.Wait, and static calls to a callee whose summary says
//     MayBlockForever.
//
//   - Lock-order cycles: every nested acquisition "B while A held" adds an
//     edge A→B to a global order graph (callee acquisitions propagate via
//     the Acquires summary bit over static call edges); a cycle in that
//     graph is a potential cross-goroutine deadlock. Intended orderings
//     are declarable with
//
//     // qb5000:lockorder <classA> < <classB>
//
//     anywhere in a non-test file; declared edges participate in cycle
//     detection, and an observed edge that contradicts a declaration is
//     reported even without a full observed cycle.
//
// Functions annotated
//
//	// qb5000:locked <mu>
//
// start with the receiver's declared mutex held (write mode), so helper
// methods contribute their nested acquisitions to the graph under the
// caller's lock. Callees whose HeldAtExit summary is non-empty (lock
// helpers) thread those classes into the caller's held set. Function
// literals start with no locks held. _test.go files are exempt.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-acquisition order must be acyclic; no self-deadlocks or blocking calls under a held lock",
	Run:  runLockOrder,
}

// lockClassOf resolves the program-wide identity class of a mutex
// expression: "pkg.Type.field" when the mutex is a named struct's field
// (the receiver type is resolved through pointers, so c.mu and sh.mu on
// different variables of one type share a class), "pkg.var" for a
// package-level var, and "" for locals, captures, and anything else the
// type information cannot pin down.
func lockClassOf(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				obj := named.Obj()
				pkg := ""
				if obj.Pkg() != nil {
					pkg = obj.Pkg().Name()
				}
				return pkg + "." + obj.Name() + "." + x.Sel.Name
			}
			return ""
		}
		// Package-qualified package-level var: pkg.Mu.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.PkgName); ok {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v.Pkg().Name() + "." + v.Name()
				}
			}
		}
		return ""
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// A heldLock is one lock in the must-hold fact: its identity class (possibly
// "" for locals) and the mode it was taken in.
type heldLock struct {
	class string
	mode  byte // 'R' or 'W'
}

// heldFact is the must-hold fact: it maps expression-rendered mutex keys
// ("c.mu", so distinct receivers of one type stay distinct) to the held
// lock.
type heldFact = setFact[string, heldLock]

// joinHeld intersects (must-analysis). When the two paths disagree on mode,
// the read mode wins: it is the weaker claim, and a later Lock on the merged
// fact then reports the upgrade that is real on at least one path.
func joinHeld(a, b heldFact) heldFact {
	out := a.intersect(b)
	for k, l := range out {
		if b[k].mode == 'R' {
			l.mode = 'R'
			out[k] = l
		}
	}
	return out
}

// A LockEdge is one ordering observation (or declaration) between two lock
// classes: To was acquired while From was held.
type LockEdge struct {
	From, To string
	Pos      token.Position // first witness acquisition, or the annotation
	Unit     string         // unit path the witness lives in
	Declared bool           // from a qb5000:lockorder annotation
	ViaCall  bool           // To comes from a callee's Acquires summary
	InCycle  bool           // the edge lies on a cycle in the order graph
}

// A LockOrderGraph is the program-wide lock-acquisition order graph plus the
// findings its construction produced, bucketed by unit so Program.Run can
// surface each finding in the unit that owns its position.
type LockOrderGraph struct {
	Edges []*LockEdge

	unitFindings map[string][]Finding
}

// LockGraph returns the lazily built program-wide lock-order graph.
func (prog *Program) LockGraph() *LockOrderGraph {
	if prog.lockGraph == nil {
		prog.lockGraph = buildLockGraph(prog)
	}
	return prog.lockGraph
}

func runLockOrder(p *Pass) {
	g := p.Prog.LockGraph()
	for _, f := range g.unitFindings[p.Unit.Path] {
		f.Analyzer = p.analyzer.Name
		p.findings = append(p.findings, f)
	}
}

// lockSink accumulates the per-body analysis results while buildLockGraph
// walks the program.
type lockSink struct {
	unit     *Package
	graph    *LockOrderGraph
	edgeSeen map[string]*LockEdge
	findSeen map[string]bool
}

func (s *lockSink) report(pos token.Pos, format string, args ...any) {
	f := Finding{Pos: s.unit.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
	id := fmt.Sprintf("%s:%d:%d:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
	if s.findSeen[id] {
		return
	}
	s.findSeen[id] = true
	s.graph.unitFindings[s.unit.Path] = append(s.graph.unitFindings[s.unit.Path], f)
}

// edge records one ordering observation, keeping the first witness per
// (From, To, Declared) triple.
func (s *lockSink) edge(from, to string, pos token.Pos, declared, viaCall bool) {
	id := from + "\x00" + to
	if declared {
		id += "\x00decl"
	}
	if s.edgeSeen[id] != nil {
		return
	}
	e := &LockEdge{
		From: from, To: to,
		Pos:      s.unit.Fset.Position(pos),
		Unit:     s.unit.Path,
		Declared: declared,
		ViaCall:  viaCall,
	}
	s.edgeSeen[id] = e
	s.graph.Edges = append(s.graph.Edges, e)
}

// buildLockGraph runs the held-lock dataflow over every non-test function in
// every unit, collecting order edges, declared orderings, and local
// findings, then closes the graph with cycle detection.
func buildLockGraph(prog *Program) *LockOrderGraph {
	sink := &lockSink{
		graph:    &LockOrderGraph{unitFindings: make(map[string][]Finding)},
		edgeSeen: make(map[string]*LockEdge),
		findSeen: make(map[string]bool),
	}
	for _, u := range prog.Units {
		sink.unit = u
		for _, file := range u.nonTestFiles() {
			collectDeclaredOrder(sink, file)
		}
		eachFuncBody(u, func(fb *funcBody) {
			vc := &visitCtx{sink: sink, nonBlocking: nonBlockingChanOps(fb.body), reported: make(map[ast.Node]bool)}
			heldLocks(prog, u, fb, vc, nil)
		})
	}
	closeLockGraph(sink)
	return sink.graph
}

// lockedEntry is the fact a body starts with. A declaration annotated
// qb5000:locked <mu> starts with the receiver's <mu> write-held, under the
// identity class of the receiver's named type; everything else — function
// literals included, since a closure may run on another goroutine — starts
// with no locks held.
func lockedEntry(prog *Program, u *Package, fb *funcBody) heldFact {
	if fb.lit != nil {
		return heldFact{}
	}
	recv := receiverName(fb.decl)
	args := prog.Graph.NodeFor(fb.decl).ann["locked"]
	if args == nil || recv == "" {
		return heldFact{}
	}
	class := ""
	if name := recvName(fb.decl.Recv.List[0].Type); name != "" {
		class = u.Types.Name() + "." + name + "." + args[0]
	}
	return heldFact{recv + "." + args[0]: {class: class, mode: 'W'}}
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// collectDeclaredOrder scans a file's comments for qb5000:lockorder
// annotations, recording well-formed ones as declared edges and reporting
// malformed ones.
func collectDeclaredOrder(sink *lockSink, file *ast.File) {
	for _, cg := range file.Comments {
		scanAnnotations(anywhere, cg.List, func(c *ast.Comment, _ string, args []string) {
			switch {
			case args == nil:
				sink.report(c.Pos(), "malformed qb5000:lockorder annotation; use // qb5000:lockorder <classA> < <classB>")
			case args[0] == args[1]:
				sink.report(c.Pos(), "qb5000:lockorder declares %s < itself; an order must relate two distinct lock classes", args[0])
			default:
				sink.edge(args[0], args[1], c.Pos(), true, false)
			}
		})
	}
}

// visitCtx carries the reporting-side state of one body's flow replay. It is
// nil during the pure transfer.
type visitCtx struct {
	sink        *lockSink
	nonBlocking map[ast.Node]bool
	reported    map[ast.Node]bool
}

// heldLocks solves the held-lock flow over one function body and replays
// it. It is the one lock-set flow of the suite: with vc set the replay
// reports lockorder's findings and order edges; visit, when set, sees every
// element with the locks provably held on every path into it (guardedby,
// sliceshare).
func heldLocks(prog *Program, u *Package, fb *funcBody, vc *visitCtx, visit func(ast.Node, heldFact)) {
	goDefer := goDeferOperands(fb.body)
	transfer := func(f heldFact, n ast.Node) heldFact {
		return lockStep(prog, u, f, n, goDefer, nil)
	}
	forwardFlow(buildCFG(fb.body), lockedEntry(prog, u, fb), transfer, joinHeld, heldFact.equal, func(n ast.Node, f heldFact) {
		if vc != nil {
			lockStep(prog, u, f, n, goDefer, vc)
		}
		if visit != nil {
			visit(n, f)
		}
	})
}

// goDeferOperands collects the calls that are the direct operand of a go or
// defer statement; they do not run at their textual position.
func goDeferOperands(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ops := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			ops[st.Call] = true
		case *ast.DeferStmt:
			ops[st.Call] = true
		}
		return true
	})
	return ops
}

// nonBlockingChanOps marks the channel operations appearing as the comm
// clause of a select that has a default clause: such a select never blocks.
func nonBlockingChanOps(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, s := range sel.Body.List {
			if cc, ok := s.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, s := range sel.Body.List {
			cc, ok := s.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.SendStmt:
					out[x] = true
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						out[x] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// lockStep is both the transfer function and the reporting visit of the
// held-lock flow: with vc == nil it only updates the fact; with vc set it
// additionally reports self-deadlocks, blocking points, and order edges.
// Defer statements leave the fact unchanged (deferred unlocks run at exit —
// the Lock-then-defer-Unlock idiom keeps the lock held below); go statements
// run their operand on another goroutine and are opaque.
func lockStep(prog *Program, u *Package, f heldFact, n ast.Node, goDefer map[*ast.CallExpr]bool, vc *visitCtx) heldFact {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return f
	}
	inspectShallow(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.SendStmt:
			chanOpUnderLock(vc, x, x.Arrow, "channel send", f)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				chanOpUnderLock(vc, x, x.OpPos, "channel receive", f)
			}
		case *ast.CallExpr:
			if goDefer[x] {
				return true
			}
			v := vc
			if v != nil {
				// Elements synthesized for range clauses reuse sub-expressions
				// of the real statement; report each call site once.
				if v.reported[x] {
					v = nil
				} else {
					v.reported[x] = true
				}
			}
			f = lockCall(prog, u, f, x, v)
		}
		return true
	})
	return f
}

// chanOpUnderLock reports a potentially blocking channel operation reached
// with locks held.
func chanOpUnderLock(vc *visitCtx, node ast.Node, pos token.Pos, what string, held heldFact) {
	if vc == nil || len(held) == 0 || vc.nonBlocking[node] || vc.reported[node] {
		return
	}
	vc.reported[node] = true
	vc.sink.report(pos, "%s while holding %s; a blocked %s keeps the lock held indefinitely (wrap it in a select with a default, or release first)",
		what, heldList(held), what)
}

// heldList renders the held set deterministically for messages.
func heldList(held heldFact) string { return strings.Join(sortedKeys(held), ", ") }

// lockCall applies one call's effect on the held set and, when vc is set,
// reports the deadlock shapes it witnesses.
func lockCall(prog *Program, u *Package, f heldFact, call *ast.CallExpr, vc *visitCtx) heldFact {
	info := u.Info
	if name, onMutex := mutexMethod(info, call); onMutex {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return f
		}
		key := types.ExprString(sel.X)
		switch name {
		case "Lock", "RLock":
			mode := byte('W')
			if name == "RLock" {
				mode = 'R'
			}
			class := lockClassOf(info, sel.X)
			if vc != nil {
				reportAcquire(vc, call, key, class, mode, f)
			}
			return f.with(key, heldLock{class: class, mode: mode})
		case "Unlock", "RUnlock":
			return f.without(key)
		}
		return f
	}
	// sync.WaitGroup.Wait blocks until workers finish; with a lock held that
	// is a deadlock whenever a worker needs the same lock.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(call.Args) == 0 {
		if t := info.TypeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if t.String() == "sync.WaitGroup" && vc != nil && len(f) > 0 {
				vc.sink.report(call.Pos(), "sync.WaitGroup.Wait while holding %s; workers that need the lock deadlock against this wait", heldList(f))
			}
		}
	}
	tf := staticCallee(info, call)
	if tf == nil {
		return f
	}
	cs := prog.Summaries[funcID(tf)]
	if cs == nil {
		return f
	}
	if vc != nil {
		if cs.MayBlockForever && len(f) > 0 {
			vc.sink.report(call.Pos(), "call to %s (summary: may block forever) while holding %s", tf.Name(), heldList(f))
		}
		reportCalleeAcquires(vc, call, tf, cs, f)
	}
	// A lock()-helper callee leaves locks held: thread them into the fact so
	// the matching later Unlock (keyed the same way) releases them.
	for _, class := range sortedKeys(cs.HeldAtExit) {
		f = f.with(heldKeyFor(call, class), heldLock{class: class, mode: 'W'})
	}
	return f
}

// reportAcquire handles one direct Lock/RLock: self-deadlock checks against
// the same key, and order-graph edges from every other held lock's class.
func reportAcquire(vc *visitCtx, call *ast.CallExpr, key, class string, mode byte, held heldFact) {
	if have, ok := held[key]; ok {
		switch {
		case have.mode == 'R' && mode == 'W':
			vc.sink.report(call.Pos(), "RLock→Lock upgrade on %s: RWMutex write-lock waits for readers, so the goroutine deadlocks on its own read lock", key)
		case have.mode == 'W' && mode == 'W':
			vc.sink.report(call.Pos(), "Lock of %s while already holding it: Go mutexes are not reentrant, this self-deadlocks", key)
		case have.mode == 'W' && mode == 'R':
			vc.sink.report(call.Pos(), "RLock on %s while already write-holding it: the read lock waits for the writer, so this self-deadlocks", key)
			// R after R stays quiet: legal today, though it can deadlock
			// against a pending writer; guardedby's must-analysis keeps the
			// pattern rare here.
		}
	}
	if class == "" {
		return
	}
	for k, hl := range held {
		if k == key || hl.class == "" {
			continue
		}
		vc.sink.edge(hl.class, class, call.Pos(), false, false)
	}
}

// reportCalleeAcquires projects a static callee's Acquires summary into the
// caller's context: classes already held may re-acquire (possible
// self-deadlock); new classes become via-call order edges.
func reportCalleeAcquires(vc *visitCtx, call *ast.CallExpr, tf *types.Func, cs *FuncSummary, held heldFact) {
	if len(cs.Acquires) == 0 || len(held) == 0 {
		return
	}
	heldClasses := make(map[string]string, len(held)) // class → key
	for k, hl := range held {
		if hl.class != "" {
			heldClasses[hl.class] = k
		}
	}
	heldSorted := sortedKeys(heldClasses)
	for _, class := range sortedKeys(cs.Acquires) {
		if k, ok := heldClasses[class]; ok {
			// The callee leaving this class held is the lock()-helper shape:
			// it acquires the caller's lock on the caller's behalf only when
			// the caller did NOT already hold it, which held[k] contradicts.
			vc.sink.report(call.Pos(), "call to %s may acquire %s while %s (same lock class) is held: possible self-deadlock if it is the same lock", tf.Name(), class, k)
			continue
		}
		for _, from := range heldSorted {
			vc.sink.edge(from, class, call.Pos(), false, true)
		}
	}
}

// heldKeyFor renders the held-set key for a class a callee left locked: the
// call's receiver expression plus the class's field segment, so that the
// caller's own later "<recv>.<field>.Unlock()" releases it.
func heldKeyFor(call *ast.CallExpr, class string) string {
	field := class
	if i := strings.LastIndex(class, "."); i >= 0 {
		field = class[i+1:]
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + field
	}
	return field
}

// closeLockGraph runs cycle detection over the assembled edges. Classes in
// one strongly connected component can be acquired in conflicting orders;
// every edge inside such a component is reported at its witness (a declared
// edge that merely contradicts an observed one pins the message to the
// observation, the actionable site).
func closeLockGraph(sink *lockSink) {
	g := sink.graph
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	declared := make(map[string]*LockEdge)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From], nodes[e.To] = true, true
		if e.Declared {
			declared[e.From+"\x00"+e.To] = e
		}
	}
	comp := make(map[string]int) // class → component index
	sccs := tarjan(sortedKeys(nodes), func(n string) []string { return adj[n] })
	for i, scc := range sccs {
		sort.Strings(scc)
		for _, n := range scc {
			comp[n] = i
		}
	}
	cycleFinding := func(e *LockEdge, format string, args ...any) {
		e.InCycle = true
		g.unitFindings[e.Unit] = append(g.unitFindings[e.Unit], Finding{
			Pos:     e.Pos,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, e := range g.Edges {
		if e.From == e.To {
			cycleFinding(e, "locks of class %s are acquired while another %s is held, with no global order between instances: two goroutines interleaving them deadlock", e.From, e.From)
			continue
		}
		if comp[e.From] != comp[e.To] {
			continue
		}
		if e.Declared {
			// A declared edge is only its own finding when two declarations
			// conflict; cycles with observed edges report at the code sites.
			if d := declared[e.To+"\x00"+e.From]; d != nil {
				cycleFinding(e, "declared order %s < %s conflicts with the declared order %s < %s (%s)", e.From, e.To, d.From, d.To, d.Pos)
			} else {
				e.InCycle = true
			}
			continue
		}
		if d := declared[e.To+"\x00"+e.From]; d != nil {
			cycleFinding(e, "acquiring %s while %s is held contradicts the declared order %s < %s (%s)", e.To, e.From, d.From, d.To, d.Pos)
			continue
		}
		if declared[e.From+"\x00"+e.To] != nil {
			// The observation follows a declared order; the edge that closed
			// the cycle is the violation and carries the finding.
			e.InCycle = true
			continue
		}
		cycleFinding(e, "lock-order cycle: acquiring %s while %s is held closes a cycle among {%s}; acquire these locks in one global order", e.To, e.From, strings.Join(sccs[comp[e.From]], ", "))
	}
}

// WriteLockDOT renders the lock-order graph in Graphviz DOT form (the
// driver's -lockgraph flag). Declared edges are dashed, via-call edges
// dotted, and edges on a cycle red.
func WriteLockDOT(w io.Writer, g *LockOrderGraph) error {
	bw := &strings.Builder{}
	fmt.Fprintln(bw, "digraph qb5000_lockorder {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [shape=box, fontsize=10];")

	nodes := make(map[string]bool)
	for _, e := range g.Edges {
		nodes[e.From], nodes[e.To] = true, true
	}
	for _, n := range sortedKeys(nodes) {
		fmt.Fprintf(bw, "  %q;\n", n)
	}

	edges := make([]*LockEdge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return !a.Declared && b.Declared
	})
	for _, e := range edges {
		var attrs []string
		if e.Declared {
			attrs = append(attrs, "style=dashed", `label="declared"`)
		}
		if e.ViaCall {
			attrs = append(attrs, "style=dotted")
		}
		if e.InCycle {
			attrs = append(attrs, "color=red")
		}
		if len(attrs) > 0 {
			fmt.Fprintf(bw, "  %q -> %q [%s];\n", e.From, e.To, strings.Join(attrs, ", "))
		} else {
			fmt.Fprintf(bw, "  %q -> %q;\n", e.From, e.To)
		}
	}
	fmt.Fprintln(bw, "}")
	_, err := io.WriteString(w, bw.String())
	return err
}
