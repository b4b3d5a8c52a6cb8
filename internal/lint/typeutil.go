package lint

import (
	"go/ast"
	"go/types"
)

// Import paths the analyzers key on.  The fixture trees under
// testdata/src re-declare miniature doubles of these packages; matching
// on a path *suffix* lets one analyzer implementation serve both the
// real tree and the fixtures without a test-only seam in the rule
// logic.
const (
	unitsPkgPath = "hyades/internal/units"
	commPkgPath  = "hyades/internal/comm"
)

// pkgPathIs reports whether pkg is importPath, or a testdata double of
// it ("<fixture>/vendor-free suffix match on ".../internal/units").
func pkgPathIs(pkg *types.Package, importPath string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	if p == importPath {
		return true
	}
	// Fixture double: path ends with the real path's last two
	// segments, e.g. "unitlit/units" for "hyades/internal/units".
	return lastSegment(p) == lastSegment(importPath)
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// funcFor resolves the called or referenced function behind an
// identifier, or nil.
func funcFor(info *types.Info, id *ast.Ident) *types.Func {
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvOf returns fn's receiver variable, or nil for a package-level
// function.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// namedType returns the named type (unwrapping aliases and pointers)
// behind t, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isUnitsType reports whether t is the named type units.<name> (or a
// fixture double of it).
func isUnitsType(t types.Type, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	return n.Obj().Name() == name && pkgPathIs(n.Obj().Pkg(), unitsPkgPath)
}

// inspectAll walks every file in the pass with fn.
func inspectAll(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// endpointIface locates the comm.Endpoint interface visible to the
// package under analysis — declared in the package itself or anywhere
// in its import graph.  Returns nil when comm is unreachable, in which
// case redorder has nothing to check.
func endpointIface(pass *Pass) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		if p == nil || !pkgPathIs(p, commPkgPath) {
			return nil
		}
		obj := p.Scope().Lookup("Endpoint")
		if obj == nil {
			return nil
		}
		iface, _ := types.Unalias(obj.Type()).Underlying().(*types.Interface)
		return iface
	}
	if iface := lookup(pass.Pkg); iface != nil {
		return iface
	}
	seen := map[*types.Package]bool{}
	queue := []*types.Package{pass.Pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p == nil || seen[p] {
			continue
		}
		seen[p] = true
		if iface := lookup(p); iface != nil {
			return iface
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}

// implementsEndpoint reports whether t (or *t) satisfies iface.
func implementsEndpoint(t types.Type, iface *types.Interface) bool {
	if t == nil || iface == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// endpointMethodCall reports whether call invokes the named method on a
// value whose type implements the Endpoint interface, e.g.
// ep.GlobalSum(x) or h.EP.Exchange(...).
func endpointMethodCall(pass *Pass, iface *types.Interface, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	return implementsEndpoint(tv.Type, iface)
}
