package lint

import (
	"path/filepath"
	"sort"
	"testing"
)

// loadCallGraphFixture builds a single-unit Program over the callgraph
// fixture package.
func loadCallGraphFixture(t *testing.T) *Program {
	t.Helper()
	pkg, err := LoadFixture(filepath.Join("testdata", "src", "callgraph"), "fixture/callgraph")
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture has type errors: %v", terr)
	}
	return NewProgram([]*Package{pkg})
}

// edgesFrom collects callerID's out-edges keyed by callee ID.
func edgesFrom(t *testing.T, prog *Program, callerID string) map[string]*CallEdge {
	t.Helper()
	node := prog.Graph.Nodes[callerID]
	if node == nil {
		t.Fatalf("no node %q in graph (have %d nodes)", callerID, len(prog.Graph.Nodes))
	}
	out := make(map[string]*CallEdge, len(node.Out))
	for _, e := range node.Out {
		out[e.Callee.ID] = e
	}
	return out
}

func TestCallGraphStaticEdges(t *testing.T) {
	prog := loadCallGraphFixture(t)
	out := edgesFrom(t, prog, "fixture/callgraph.spinsViaCallee")
	e, ok := out["fixture/callgraph.spin"]
	if !ok {
		t.Fatal("spinsViaCallee -> spin edge missing")
	}
	if e.Go || e.Defer || e.Dynamic {
		t.Errorf("spinsViaCallee -> spin should be a plain static edge, got go=%v defer=%v dynamic=%v", e.Go, e.Defer, e.Dynamic)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadCallGraphFixture(t)

	// Runner has one method: both A and B cover it.
	out := edgesFrom(t, prog, "fixture/callgraph.dispatch")
	for _, want := range []string{"fixture/callgraph.(A).Run", "fixture/callgraph.(B).Run"} {
		e, ok := out[want]
		if !ok {
			t.Errorf("dispatch is missing may-call edge to %s", want)
			continue
		}
		if !e.Dynamic {
			t.Errorf("dispatch -> %s must be tagged Dynamic", want)
		}
	}

	// TwoFace needs Run+Close: only B's receiver covers the set.
	out2 := edgesFrom(t, prog, "fixture/callgraph.dispatch2")
	if _, ok := out2["fixture/callgraph.(B).Run"]; !ok {
		t.Error("dispatch2 is missing may-call edge to (B).Run")
	}
	if _, ok := out2["fixture/callgraph.(A).Run"]; ok {
		t.Error("dispatch2 must not may-call (A).Run: A lacks Close, so it cannot satisfy TwoFace")
	}
}

func TestCallGraphGoDeferTags(t *testing.T) {
	prog := loadCallGraphFixture(t)
	out := edgesFrom(t, prog, "fixture/callgraph.spawnAndDefer")
	if e, ok := out["fixture/callgraph.worker"]; !ok || !e.Go {
		t.Errorf("spawnAndDefer -> worker must exist with the Go tag (got %+v)", e)
	}
	if e, ok := out["fixture/callgraph.cleanup"]; !ok || !e.Defer {
		t.Errorf("spawnAndDefer -> cleanup must exist with the Defer tag (got %+v)", e)
	}
}

func TestCallGraphLiteralNode(t *testing.T) {
	prog := loadCallGraphFixture(t)
	out := edgesFrom(t, prog, "fixture/callgraph.callsLit")
	if _, ok := out["fixture/callgraph.callsLit$lit0"]; !ok {
		t.Errorf("callsLit must have an edge to its own literal node; edges: %v", keys(out))
	}
}

func TestCallGraphSCC(t *testing.T) {
	prog := loadCallGraphFixture(t)
	var mutualSCC []*FuncNode
	for _, scc := range prog.Graph.SCCs {
		for _, n := range scc {
			if n.ID == "fixture/callgraph.mutual1" {
				mutualSCC = scc
			}
		}
	}
	if mutualSCC == nil {
		t.Fatal("mutual1 not found in any SCC")
	}
	if len(mutualSCC) != 2 {
		t.Fatalf("mutual1's SCC should have exactly 2 members, got %d", len(mutualSCC))
	}
	found := false
	for _, n := range mutualSCC {
		if n.ID == "fixture/callgraph.mutual2" {
			found = true
		}
	}
	if !found {
		t.Error("mutual2 must share mutual1's SCC")
	}

	// Bottom-up order: a callee's SCC appears before its caller's.
	pos := make(map[string]int)
	for i, scc := range prog.Graph.SCCs {
		for _, n := range scc {
			pos[n.ID] = i
		}
	}
	if pos["fixture/callgraph.spin"] > pos["fixture/callgraph.spinsViaCallee"] {
		t.Error("SCC order is not bottom-up: spin (callee) must come before spinsViaCallee (caller)")
	}
}

func TestFuncSummaries(t *testing.T) {
	prog := loadCallGraphFixture(t)
	sum := func(id string) *FuncSummary {
		t.Helper()
		s := prog.Summary("fixture/callgraph." + id)
		if s == nil {
			t.Fatalf("no summary for %s", id)
		}
		return s
	}
	if !sum("spin").MayBlockForever {
		t.Error("spin must be MayBlockForever")
	}
	if !sum("spinsViaCallee").MayBlockForever {
		t.Error("spinsViaCallee must inherit MayBlockForever from spin")
	}
	if !sum("spawnAndDefer").Spawns {
		t.Error("spawnAndDefer must be Spawns")
	}
	if !sum("closesArg").Closes[0] {
		t.Error("closesArg must close its first parameter")
	}
	if !sum("closesTransitively").Closes[0] {
		t.Error("closesTransitively must inherit Closes[0] through closesArg")
	}
	if !sum("returnsOpen").ReturnsOpen {
		t.Error("returnsOpen must be ReturnsOpen")
	}
	if !sum("die").NoReturn {
		t.Error("die must be NoReturn")
	}
	if sum("cleanup").MayBlockForever || sum("cleanup").Spawns || sum("cleanup").NoReturn {
		t.Error("cleanup must have a quiet summary")
	}
	// Dynamic edges must not leak summaries: dispatch may-calls Run
	// implementations but proves nothing by it.
	if s := sum("dispatch"); s.MayBlockForever || s.Spawns {
		t.Error("dispatch must not inherit bits over dynamic edges")
	}
}

func keys(m map[string]*CallEdge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
