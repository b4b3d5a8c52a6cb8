package lint

import (
	"go/ast"

	"hyades/internal/lint/analysis"
)

// Nogoroutine forbids raw go statements in simulation-core packages.
//
// The des kernel runs processes as runtime coroutines and every event
// on one dispatcher: exactly one activity executes at a time, which is
// why simulation code may touch shared state without locks.  A raw
// goroutine escapes that discipline — it races with the running
// activity and injects host-scheduler nondeterminism into virtual time.
// Concurrency in simulation code must go through Engine.Spawn.
var Nogoroutine = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid raw go statements in sim-core packages; use Engine.Spawn",
	Run:  runNogoroutine,
}

func runNogoroutine(pass *analysis.Pass) (interface{}, error) {
	inspectAll(pass, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(),
				"raw go statement escapes the coroutine baton and races with simulation state; use Engine.Spawn (or annotate //lint:allow nogoroutine with a justification)")
		}
		return true
	})
	return nil, nil
}
