package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"hyades/internal/lint/analysis"
	"hyades/internal/lint/cfg"
	"hyades/internal/lint/dataflow"
)

// Commlock flags collective calls (GlobalSum, Barrier, Exchange) that
// are not matched across every arm of a rank-dependent branch — the
// classic collective-mismatch deadlock:
//
//	if ep.Rank() == 0 {
//		ep.GlobalSum(x) // only rank 0 enters the butterfly: deadlock
//	}
//
// The model's collectives are synchronous: GlobalSum is a fixed
// butterfly, Exchange blocks on its peer, Barrier is a GlobalSum of
// zero.  Every rank must therefore reach the same collective call
// sequence; a collective guarded by a condition derived from Rank()
// splits the ranks into groups that wait on each other forever.
//
// The analyzer is a forward dataflow over the function's CFG.  First an
// intra-procedural taint pass marks every variable derived from a
// Rank() call; a branch whose condition mentions tainted state is
// rank-dependent.  Each CFG edge leaving such a branch pushes a
// (branch, arm) guard; merging control flow intersects guard sets, so
// re-joined code is unguarded, while code after an early-return arm
// keeps the surviving arm's guard — which is how the analyzer catches
//
//	if ep.Rank() != 0 { return }
//	ep.Barrier() // only rank 0 gets here
//
// A collective is reported when, for some rank-dependent guard it runs
// under, the static count of same-method collective calls differs
// between the branch's arms (pairwise send/receive shapes where both
// arms call Exchange once, as in tile gather, stay legal), or when the
// guard is the body of a loop whose trip count is rank-dependent.
//
// Functions named GlobalSum, Barrier or Exchange are exempt: they ARE
// the collective implementations, and rank-dependent asymmetry is
// exactly how a butterfly is written.
var Commlock = &analysis.Analyzer{
	Name: "commlock",
	Doc:  "flag collectives not matched across rank-dependent branches (deadlock)",
	Run:  runCommlock,
}

func runCommlock(pass *analysis.Pass) (interface{}, error) {
	iface := endpointIface(pass)
	if iface == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if collectiveNames[fd.Name.Name] {
				continue // a collective implementation
			}
			// Taint is computed once over the whole declaration:
			// closures capture the enclosing function's rank-derived
			// locals.
			taint := newRankTaint(pass, iface, fd)
			checkCommUnit(pass, iface, taint, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkCommUnit(pass, iface, taint, fl.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// guard marks "control reached here via arm `arm` of `branch`".
type guard struct {
	branch ast.Node
	arm    int
}

type guardSet map[guard]bool

// guardProblem is the dataflow problem: the fact at a point is the set
// of rank-dependent guards every path to that point agrees on.
type guardProblem struct {
	rankDep map[ast.Node]bool
}

func (p guardProblem) Entry() dataflow.Fact { return guardSet{} }

func (p guardProblem) Meet(a, b dataflow.Fact) dataflow.Fact {
	ga, gb := a.(guardSet), b.(guardSet)
	out := guardSet{}
	for g := range ga {
		if gb[g] {
			out[g] = true
		}
	}
	return out
}

func (p guardProblem) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact { return in }

func (p guardProblem) EdgeFact(e *cfg.Edge, out dataflow.Fact) dataflow.Fact {
	if e.Branch == nil || !p.rankDep[e.Branch] {
		return out
	}
	// A loop's exit arm is no guard: the loop condition eventually
	// fails on every rank, so code after the loop is common again.
	// Only the body arm (a rank-dependent trip count) is recorded.
	if isLoopNode(e.Branch) && e.Arm != 0 {
		return out
	}
	g := out.(guardSet)
	n := make(guardSet, len(g)+1)
	for k := range g {
		n[k] = true
	}
	n[guard{branch: e.Branch, arm: e.Arm}] = true
	return n
}

func (p guardProblem) Equal(a, b dataflow.Fact) bool {
	ga, gb := a.(guardSet), b.(guardSet)
	if len(ga) != len(gb) {
		return false
	}
	for g := range ga {
		if !gb[g] {
			return false
		}
	}
	return true
}

func isLoopNode(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

// branchConds returns the expressions that govern which arm of branch
// executes.  Type switches and selects never depend on a rank value.
func branchConds(branch ast.Node) []ast.Expr {
	switch s := branch.(type) {
	case *ast.IfStmt:
		return []ast.Expr{s.Cond}
	case *ast.ForStmt:
		if s.Cond != nil {
			return []ast.Expr{s.Cond}
		}
	case *ast.RangeStmt:
		return []ast.Expr{s.X}
	case *ast.SwitchStmt:
		var es []ast.Expr
		if s.Tag != nil {
			es = append(es, s.Tag)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				es = append(es, cc.List...)
			}
		}
		return es
	}
	return nil
}

// checkCommUnit analyzes one function body (a declaration or one
// function literal; cfg.New does not descend into nested literals).
func checkCommUnit(pass *analysis.Pass, iface *types.Interface, taint *rankTaint, body *ast.BlockStmt) {
	g := cfg.New(body)

	rankDep := map[ast.Node]bool{}
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.Branch == nil || rankDep[e.Branch] {
				continue
			}
			for _, c := range branchConds(e.Branch) {
				if taint.expr(c) {
					rankDep[e.Branch] = true
					break
				}
			}
		}
	}
	if len(rankDep) == 0 {
		return
	}

	facts := dataflow.Forward(g, guardProblem{rankDep: rankDep})

	// Collect every Endpoint collective call site with the guards it
	// runs under.  A collective behind a helper call is not seen here:
	// the ranks it strands park until the engine watchdog names them.
	type site struct {
		call   *ast.CallExpr
		method string
		guards guardSet
	}
	var sites []site
	for _, blk := range g.Blocks {
		fact, ok := facts[blk]
		if !ok {
			continue // unreachable
		}
		gs := fact.(guardSet)
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // analyzed as its own unit
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if method, ok := collectiveCall(pass, iface, call); ok {
					sites = append(sites, site{call: call, method: method, guards: gs})
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}

	// Per rank-dependent branch: arm universe and static per-arm call
	// counts per collective method.
	arms := map[ast.Node]map[int]bool{}
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.Branch != nil && rankDep[e.Branch] {
				if arms[e.Branch] == nil {
					arms[e.Branch] = map[int]bool{}
				}
				arms[e.Branch][e.Arm] = true
			}
		}
	}
	counts := map[ast.Node]map[int]map[string]int{}
	for _, s := range sites {
		for gd := range s.guards {
			if counts[gd.branch] == nil {
				counts[gd.branch] = map[int]map[string]int{}
			}
			if counts[gd.branch][gd.arm] == nil {
				counts[gd.branch][gd.arm] = map[string]int{}
			}
			counts[gd.branch][gd.arm][s.method]++
		}
	}
	mismatched := func(gd guard, method string) bool {
		if isLoopNode(gd.branch) {
			return true // rank-dependent trip count: counts differ by construction
		}
		want, first := 0, true
		for arm := range arms[gd.branch] {
			n := 0
			if byArm := counts[gd.branch]; byArm != nil && byArm[arm] != nil {
				n = byArm[arm][method]
			}
			if first {
				want, first = n, false
			} else if n != want {
				return true
			}
		}
		return false
	}

	for _, s := range sites {
		var bad []guard
		for gd := range s.guards {
			if mismatched(gd, s.method) {
				bad = append(bad, gd)
			}
		}
		if len(bad) == 0 {
			continue
		}
		sort.Slice(bad, func(i, j int) bool {
			if bad[i].branch.Pos() != bad[j].branch.Pos() {
				return bad[i].branch.Pos() < bad[j].branch.Pos()
			}
			return bad[i].arm < bad[j].arm
		})
		gd := bad[0]
		line := pass.Fset.Position(gd.branch.Pos()).Line
		if isLoopNode(gd.branch) {
			pass.Reportf(s.call.Pos(),
				"collective %s runs inside a loop whose trip count is rank-dependent (loop at line %d); ranks make different numbers of collective calls and deadlock",
				s.method, line)
		} else {
			pass.Reportf(s.call.Pos(),
				"collective %s is not matched on every arm of the rank-dependent condition at line %d; ranks on the other arm never join it and the collective deadlocks",
				s.method, line)
		}
	}
}

// rankTaint is the set of variables (transitively) derived from a
// Rank() call within one function declaration.
type rankTaint struct {
	pass  *analysis.Pass
	iface *types.Interface
	objs  map[types.Object]bool
}

// newRankTaint runs the flow-insensitive taint fixpoint over root.
func newRankTaint(pass *analysis.Pass, iface *types.Interface, root ast.Node) *rankTaint {
	t := &rankTaint{pass: pass, iface: iface, objs: map[types.Object]bool{}}
	mark := func(id *ast.Ident) bool {
		if id == nil || id.Name == "_" {
			return false
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil || t.objs[obj] {
			return false
		}
		t.objs[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if ok && t.expr(n.Rhs[i]) && mark(id) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 && t.expr(n.Rhs[0]) {
					// x, y := f(...) with a tainted operand somewhere:
					// conservatively taint every target.
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && mark(id) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if t.expr(n.Values[i]) && mark(name) {
							changed = true
						}
					}
				} else if len(n.Values) == 1 && t.expr(n.Values[0]) {
					for _, name := range n.Names {
						if mark(name) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return t
}

// expr reports whether e mentions rank-derived state: a Rank() call on
// an Endpoint, or a tainted variable.
func (t *rankTaint) expr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if endpointMethodCall(t.pass, t.iface, n, "Rank") {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := t.pass.TypesInfo.Uses[n]; obj != nil && t.objs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
