// Package lint is hyadeslint: project-specific static analyzers that
// machine-check the invariants the simulation's claims rest on.
//
// The des package promises that a simulation run is a deterministic
// function of its inputs — every timing figure in the paper regenerates
// bit-for-bit.  Nothing in the language enforces that promise; these
// analyzers do:
//
//	detsource   — no wall clock, no unseeded global randomness
//	nogoroutine — no raw goroutines past the coroutine baton
//	unitlit     — no unitless literals converted to units.Time/Bandwidth
//	maprange    — no map iteration in the event path
//	dimcheck    — no arithmetic mixing units.Time/Bandwidth/Size dimensions
//	redorder    — no manual float accumulations feeding GlobalSum
//
// Every rule reads one function body at a time.  What would need a call
// graph is checked where the runtime or a test can see it (DESIGN.md,
// "What the linter certifies"): a schedule into the past panics in des;
// a test holds the sim core's module imports inside simCorePackages, so
// every clock read the core can reach sits where detsource looks;
// TestSteadyStateAllocs pins the hot path at zero allocations; and the
// collective order is checked by package comm as the ranks run: a rank
// that skips a collective strands its peers until the watchdog or the
// deadlock report names them, and a GlobalSum that meets a Barrier
// panics with a *comm.CollectiveMismatchError.
//
// Each rule can be locally waived with the annotation
//
//	//lint:allow <rule> <reason>
//
// on, or immediately above, the offending line.  The waiver is the only
// escape hatch, and it is grep-able — reviewers can audit every
// exception to the determinism contract in one search.
package lint

import (
	"strings"

	"hyades/internal/lint/analysis"
	"hyades/internal/lint/load"
)

// Analyzers is the full suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	Detsource,
	Nogoroutine,
	Unitlit,
	Maprange,
	Dimcheck,
	Redorder,
}

// simCorePackages hold simulation state or run inside the coroutine
// discipline; detsource and nogoroutine apply here.  The list is closed
// under module imports (TestSimCoreImportClosure): a sim-core package
// may import only another, so no helper outside detsource's scope can
// hide a clock read below the core.
var simCorePackages = []string{
	"hyades/internal/des",
	"hyades/internal/fault",
	"hyades/internal/arctic",
	"hyades/internal/startx",
	"hyades/internal/pci",
	"hyades/internal/node",
	"hyades/internal/comm",
	"hyades/internal/cluster",
	"hyades/internal/netmodel",
	"hyades/internal/mpistart",
	"hyades/internal/gcm",
	"hyades/internal/plates",
	"hyades/internal/units",
}

// eventPathPackages are the hot event-dispatch packages where map
// iteration order could reorder simultaneous events; maprange applies
// here.
var eventPathPackages = []string{
	"hyades/internal/des",
	"hyades/internal/fault",
	"hyades/internal/arctic",
	"hyades/internal/comm",
	// The crash-recovery path: peer monitors (startx) and the crash /
	// respawn events (cluster) dispatch in engine context, where map
	// iteration order would reorder simultaneous events.
	"hyades/internal/startx",
	"hyades/internal/cluster",
}

func underAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// redorderPackages hold model code whose local reductions feed global
// sums; redorder applies here.  internal/gcm/reduce itself is the
// canonical implementation and contains no GlobalSum calls, so the
// rule's own GlobalSum precondition keeps it clean without a carve-out.
var redorderPackages = []string{
	"hyades/internal/gcm",
}

// AnalyzersFor returns the analyzers that apply to the package with the
// given import path.  unitlit guards call sites anywhere in the module,
// dimcheck everywhere except package units (whose accessor
// implementations are the sanctioned raw conversions); the other rules
// are scoped to the simulation core.
func AnalyzersFor(importPath string) []*analysis.Analyzer {
	var as []*analysis.Analyzer
	if underAny(importPath, simCorePackages) {
		as = append(as, Detsource, Nogoroutine)
	}
	as = append(as, Unitlit)
	if underAny(importPath, eventPathPackages) {
		as = append(as, Maprange)
	}
	if importPath != unitsPkgPath {
		as = append(as, Dimcheck)
	}
	if underAny(importPath, redorderPackages) {
		as = append(as, Redorder)
	}
	return as
}

// Check runs every applicable analyzer over pkg and returns the merged,
// position-sorted findings.
func Check(pkg *load.Package) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, a := range AnalyzersFor(pkg.Path) {
		diags, err := analysis.RunPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	analysis.Sort(pkg.Fset, all)
	return all, nil
}
