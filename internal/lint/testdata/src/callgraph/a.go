// Package callgraphfix pins the shape of the interprocedural call graph:
// static edges, interface may-call resolution, go/defer tags, literal
// nodes, SCC formation, and the function summaries computed over them.
package callgraphfix

import "context"

type Runner interface{ Run() int }

// TwoFace needs both methods; only B's receiver covers it.
type TwoFace interface {
	Run() int
	Close() error
}

type A struct{}

func (A) Run() int { return 1 }

type B struct{}

func (*B) Run() int { return 2 }

func (*B) Close() error { return nil }

// dispatch may call any loaded Run with a covering receiver: A and B.
func dispatch(r Runner) int { return r.Run() }

// dispatch2 requires the full TwoFace method set: only B qualifies.
func dispatch2(t TwoFace) int { return t.Run() }

// mutual1 and mutual2 form a two-node SCC.
func mutual1(n int) int {
	if n <= 0 {
		return 0
	}
	return mutual2(n - 1)
}

func mutual2(n int) int { return mutual1(n) }

func cleanup() {}

func worker(ctx context.Context) { <-ctx.Done() }

// spawnAndDefer contributes a go-tagged and a defer-tagged edge.
func spawnAndDefer(ctx context.Context) {
	defer cleanup()
	go worker(ctx)
}

// callsLit invokes a function literal directly.
func callsLit() int {
	return func() int { return 3 }()
}

// spin loops forever; spinsViaCallee reaches it by a plain static edge.
func spin() {
	for {
	}
}

func spinsViaCallee() { spin() }

// spawnsViaCallee inherits the Spawns summary bit through a static call.
func spawnsViaCallee(ctx context.Context) { spawnAndDefer(ctx) }
