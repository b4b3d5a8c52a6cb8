package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Redorder flags manual floating-point accumulation loops in functions
// that feed a GlobalSum.
//
// The determinism contract promises bit-identical results run to run,
// and the global sum is its weakest point: floating-point addition is
// not associative, so the *order* of the local accumulation is part of
// the answer.  The canonical order lives in one place —
// internal/gcm/reduce (Over2/Over3/Dot2/Slice, storage order: i
// fastest, then j, then k) — so that refactoring a loop nest can never
// silently reorder a reduction.
//
// The rule: inside a function (or closure) that calls GlobalSum on a
// comm.Endpoint, a `+=`/`-=` onto a float variable declared outside
// the loop nest is a manual reduction and must route through the
// reduce helpers.  Accumulators declared inside the loop body (per-cell
// stencil sums, per-column physics) are local arithmetic, not
// reductions, and stay legal; so do integer counters.
//
// Functions named GlobalSum are exempt — they implement the collective,
// and the pairwise butterfly accumulation is theirs to own.
var Redorder = &Analyzer{
	Name: "redorder",
	Run:  runRedorder,
}

func runRedorder(pass *Pass) {
	iface := endpointIface(pass)
	if iface == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "GlobalSum" {
				continue // the collective implementation owns its order
			}
			checkRedorderUnit(pass, iface, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkRedorderUnit(pass, iface, fl.Body)
				}
				return true
			})
		}
	}
}

// checkRedorderUnit inspects one function body (nested literals are
// separate units: a closure is its own reduction scope).
func checkRedorderUnit(pass *Pass, iface *types.Interface, body *ast.BlockStmt) {
	if !callsGlobalSum(pass, iface, body) {
		return
	}
	var loops []ast.Node // enclosing for/range stack
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if m == n {
					return true
				}
				loops = append(loops, m)
				walk(m)
				loops = loops[:len(loops)-1]
				return false
			case *ast.RangeStmt:
				if m == n {
					return true
				}
				loops = append(loops, m)
				walk(m)
				loops = loops[:len(loops)-1]
				return false
			case *ast.AssignStmt:
				checkAccum(pass, m, loops)
			}
			return true
		})
	}
	walk(body)
}

// checkAccum reports assign when it is a float accumulation inside a
// loop onto a variable declared outside the outermost enclosing loop.
func checkAccum(pass *Pass, assign *ast.AssignStmt, loops []ast.Node) {
	if len(loops) == 0 {
		return
	}
	if assign.Tok != token.ADD_ASSIGN && assign.Tok != token.SUB_ASSIGN {
		return
	}
	if len(assign.Lhs) != 1 {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	basic, ok := types.Unalias(obj.Type()).(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	// Declared inside any enclosing loop? Then it resets per iteration
	// of an outer loop — local arithmetic, not a reduction.
	outermost := loops[0]
	if obj.Pos() >= outermost.Pos() && obj.Pos() < outermost.End() {
		return
	}
	pass.Reportf(assign.Pos(),
		"manual floating-point accumulation onto %s feeds a global sum; route it through the reduce helpers (reduce.Over2/Over3/Dot2/Slice) so the summation order stays canonical",
		id.Name)
}

// callsGlobalSum reports whether body (excluding nested function
// literals) invokes GlobalSum on an Endpoint.
func callsGlobalSum(pass *Pass, iface *types.Interface, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && endpointMethodCall(pass, iface, call, "GlobalSum") {
			found = true
			return false
		}
		return true
	})
	return found
}
