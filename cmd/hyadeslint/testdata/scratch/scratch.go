// Package scratch is a deliberately broken fixture: main_test.go checks
// that hyadeslint flags the unitless duration below (unitlit applies
// module-wide) with exit status 1.  It lives under testdata, so `./...`
// patterns and the repository lint-clean gate never include it — it is
// only reachable by naming the directory explicitly.
package scratch

import "hyades/internal/units"

// Grain was meant as 500 ns; units.Time(500) is 500 picoseconds.
const Grain = units.Time(500)
