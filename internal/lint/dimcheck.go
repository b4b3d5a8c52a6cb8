package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Dimcheck flags dimension-crossing arithmetic on the units types.
//
// The type system already rejects `t + bw` outright, so the mistakes
// that survive compilation launder a value through a conversion:
//
//	units.Bandwidth(elapsed)          // picoseconds reread as bytes/sec
//	float64(elapsed) / float64(rate)  // raw base-grain count arithmetic
//
// Two rules:
//
//  1. A direct conversion from one units type to another
//     (Time↔Bandwidth↔Size in any pairing) is always wrong — the base
//     grains differ, so the number silently changes meaning.
//
//  2. A binary expression whose two operands are raw numeric
//     conversions (float64(...), int64(...), ...) of two DIFFERENT
//     units types bypasses the accessor family.  `bytes / seconds` must
//     be spelled with units.Rate / units.Transfer / Seconds() etc.,
//     which keep the dimensions in view.  Same-type ratios
//     (float64(a)/float64(b), both Time) stay legal: they are
//     dimensionless by construction.
//
// The accessor family — Time.Seconds/Micros/Millis/Minutes,
// Bandwidth.Transfer/MBperSec, units.Rate — is the sanctioned bridge
// between dimensions.
var Dimcheck = &Analyzer{
	Name: "dimcheck",
	Run:  runDimcheck,
}

// unitTypeNames are the dimensioned types under guard.
var unitTypeNames = []string{"Time", "Bandwidth", "Size"}

// unitTypeName returns which units type t is, or "".
func unitTypeName(t types.Type) string {
	for _, name := range unitTypeNames {
		if isUnitsType(t, name) {
			return name
		}
	}
	return ""
}

func runDimcheck(pass *Pass) {
	inspectAll(pass, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if dst, src, ok := crossUnitConversion(pass, n); ok {
				pass.Reportf(n.Pos(),
					"units.%s value converted directly to units.%s: the dimensions are incompatible; cross dimensions through the accessor family (Seconds/Micros, Transfer/MBperSec, Rate)",
					src, dst)
			}
		case *ast.BinaryExpr:
			if !dimensionedOp(n.Op) {
				return true
			}
			ux := rawUnitConv(pass, n.X)
			uy := rawUnitConv(pass, n.Y)
			if ux != "" && uy != "" && ux != uy {
				pass.Reportf(n.Pos(),
					"arithmetic mixes units.%s and units.%s through raw numeric conversions, bypassing the dimension check; use the accessor family (Seconds/Micros, Transfer/MBperSec, Rate) instead",
					ux, uy)
			}
		}
		return true
	})
}

// dimensionedOp reports whether op combines two values in a way where
// their dimensions must agree.
func dimensionedOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// crossUnitConversion matches U1(x) where U1 and x's type are two
// different units types.
func crossUnitConversion(pass *Pass, call *ast.CallExpr) (dst, src string, ok bool) {
	if len(call.Args) != 1 {
		return "", "", false
	}
	funTV, okTV := pass.TypesInfo.Types[call.Fun]
	if !okTV || !funTV.IsType() {
		return "", "", false
	}
	dst = unitTypeName(funTV.Type)
	if dst == "" {
		return "", "", false
	}
	argTV, okTV := pass.TypesInfo.Types[unparen(call.Args[0])]
	if !okTV || argTV.Type == nil {
		return "", "", false
	}
	src = unitTypeName(argTV.Type)
	if src == "" || src == dst {
		return "", "", false
	}
	return dst, src, true
}

// rawUnitConv matches a conversion of a units-typed value to a plain
// numeric type — float64(t), int64(bw), ... — and returns which units
// type was stripped, or "".
func rawUnitConv(pass *Pass, e ast.Expr) string {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	funTV, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !funTV.IsType() {
		return ""
	}
	basic, ok := types.Unalias(funTV.Type).(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return ""
	}
	argTV, ok := pass.TypesInfo.Types[unparen(call.Args[0])]
	if !ok || argTV.Type == nil {
		return ""
	}
	return unitTypeName(argTV.Type)
}
