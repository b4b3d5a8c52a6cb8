package lint

import (
	"go/ast"
	"go/constant"
)

// Unitlit flags constants converted directly to units.Time or
// units.Bandwidth, as in units.Time(500).
//
// units.Time counts picoseconds; units.Bandwidth counts bytes per
// second.  A bare literal conversion silently fixes the unit to the
// base grain — units.Time(500) is half a nanosecond, almost never what
// the author meant — which is exactly the class of calibration bug that
// corrupted-unit constants cause.  Write the unit out instead:
//
//	500 * units.Nanosecond      not  units.Time(500)
//	150 * units.MBps            not  units.Bandwidth(1.5e8)
//
// Conversions of zero are exempt (zero is zero in every unit), as are
// conversions of non-constant expressions: units.Time(n) where n is a
// runtime count is the sanctioned way to scale a duration (d / units.Time(reps)).
var Unitlit = &Analyzer{
	Name: "unitlit",
	Run:  runUnitlit,
}

// unitSuggestion pairs each guarded type with the idiomatic multiplier
// to name in the message.
var unitSuggestion = map[string]string{
	"Time":      "e.g. 500 * units.Nanosecond",
	"Bandwidth": "e.g. 150 * units.MBps",
}

func runUnitlit(pass *Pass) {
	inspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		// A conversion is a CallExpr whose Fun denotes a type.
		funTV, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !funTV.IsType() {
			return true
		}
		var unitName string
		for name := range unitSuggestion {
			if isUnitsType(funTV.Type, name) {
				unitName = name
				break
			}
		}
		if unitName == "" {
			return true
		}
		arg := unparen(call.Args[0])
		argTV, ok := pass.TypesInfo.Types[arg]
		if !ok || argTV.Value == nil {
			return true // not a constant: runtime scaling, legal
		}
		// Beware: go/types records an untyped constant argument with
		// its *converted* type, so the unit-bearing exemption must be
		// syntactic — does the expression reference any units-typed
		// constant (units.Nanosecond, units.MBps, ...)?
		if exprCarriesUnit(pass, arg, unitName) {
			return true
		}
		if isZeroConst(argTV.Value) {
			return true
		}
		pass.Reportf(call.Pos(),
			"constant %s converted directly to units.%s fixes the unit to the base grain; multiply by a named unit instead (%s)",
			argTV.Value.ExactString(), unitName, unitSuggestion[unitName])
		return true
	})
}

// exprCarriesUnit reports whether e references an object of the
// guarded units type — e.g. 5*units.Nanosecond mentions Nanosecond, a
// units.Time constant, so the duration already carries its unit.
func exprCarriesUnit(pass *Pass, e ast.Expr, unitName string) bool {
	carries := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || carries {
			return !carries
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && isUnitsType(obj.Type(), unitName) {
			carries = true
		}
		return !carries
	})
	return carries
}

// isZeroConst reports whether v is numerically zero.
func isZeroConst(v constant.Value) bool {
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}
