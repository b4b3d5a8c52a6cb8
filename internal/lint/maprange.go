package lint

import (
	"go/ast"
	"go/types"
)

// Maprange flags range statements over maps in the event-path packages
// (des, arctic, comm).
//
// Go randomizes map iteration order on purpose.  In most code that is
// harmless; in the event path it is a determinism hazard: iterating a
// map to schedule events, wake processes or accumulate floating-point
// state makes the visit order — and therefore event sequence numbers,
// wake-up order, and rounding — differ between otherwise identical
// runs.  Iterate a sorted key slice or an insertion-ordered structure
// instead.  If the loop body is provably order-insensitive (a pure
// count, a set membership test), waive the finding with
// //lint:allow maprange and say why.
var Maprange = &Analyzer{
	Name: "maprange",
	Run:  runMaprange,
}

func runMaprange(pass *Pass) {
	inspectAll(pass, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			pass.Reportf(rng.Pos(),
				"map iteration order is randomized and this loop runs in the event path; iterate a sorted key slice or an ordered structure (//lint:allow maprange if order provably cannot matter)")
		}
		return true
	})
}
