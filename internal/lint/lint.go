// Package lint is hyadeslint: project-specific static analyzers that
// machine-check the invariants the simulation's claims rest on.  The
// repository test TestRepositoryIsClean runs them over every package of
// the module and fails on any finding: go test ./internal/lint.
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
// on, or immediately above, the offending line.  A waiver names one
// rule: another rule's finding on the same line still stands.  The
// waiver is the only escape hatch, and it is grep-able — reviewers can
// audit every exception to the determinism contract in one search.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"

	"hyades/internal/lint/load"
)

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
func AnalyzersFor(importPath string) []*Analyzer {
	var as []*Analyzer
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

// An Analyzer is one rule.  Run reads the pass's files one function
// body at a time and reports each finding through Pass.Reportf.
type Analyzer struct {
	Name string // names the rule in findings and in //lint:allow
	Run  func(*Pass)
}

// A Pass hands one analyzer the syntax and types of one package.
type Pass struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// allowRE matches the waiver and captures the one rule it names.
var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z_][A-Za-z0-9_]*)`)

// Run applies a to pkg and returns the findings that no //lint:allow
// naming a, on the same line or the line above, waives.
func Run(a *Analyzer, pkg *load.Package) []Diagnostic {
	type line struct {
		file string
		n    int
	}
	waived := map[line]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowRE.FindStringSubmatch(c.Text); m != nil && m[1] == a.Name {
					p := pkg.Fset.Position(c.Pos())
					waived[line{p.Filename, p.Line}] = true
					waived[line{p.Filename, p.Line + 1}] = true
				}
			}
		}
	}
	var diags []Diagnostic
	a.Run(&Pass{Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, report: func(pos token.Pos, msg string) {
		if p := pkg.Fset.Position(pos); !waived[line{p.Filename, p.Line}] {
			diags = append(diags, Diagnostic{Pos: pos, Message: msg, Analyzer: a.Name})
		}
	}})
	return diags
}

// Check runs every analyzer that applies to pkg and returns the findings
// in (file, line, column, message) order: the loader parses a package's
// files in name order into one FileSet, so position order is file order.
func Check(pkg *load.Package) []Diagnostic {
	var all []Diagnostic
	for _, a := range AnalyzersFor(pkg.Path) {
		all = append(all, Run(a, pkg)...)
	}
	slices.SortFunc(all, func(x, y Diagnostic) int {
		return cmp.Or(cmp.Compare(x.Pos, y.Pos), strings.Compare(x.Message, y.Message))
	})
	return all
}
