package lint_test

import (
	"cmp"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hyades/internal/lint"
	"hyades/internal/lint/analysistest"
)

// Each analyzer has a flagged fixture (every finding asserted by a
// // want annotation) and a clean fixture (no findings allowed),
// including the //lint:allow escape hatch on an otherwise-flagged line.

func TestDetsource(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Detsource, "detsource")
}

func TestNogoroutine(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Nogoroutine, "nogoroutine")
}

func TestUnitlit(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Unitlit, "unitlit")
}

func TestMaprange(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Maprange, "maprange")
}

func TestDimcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Dimcheck, "dimcheck")
}

func TestRedorder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Redorder, "redorder")
}

// TestCheckSortsFindings: Check returns every finding of the analyzers
// that apply to a package, in position order.
func TestCheckSortsFindings(t *testing.T) {
	pkg, err := analysistest.Loader(t).LoadDir(filepath.Join("testdata", "src", "unitlit"), "unitlit")
	if err != nil {
		t.Fatal(err)
	}
	got := lint.Check(pkg)
	want := 0
	for _, a := range lint.AnalyzersFor(pkg.Path) {
		want += len(lint.Run(a, pkg))
	}
	if len(got) < 2 || len(got) != want {
		t.Fatalf("Check found %d, its analyzers %d; want the same count, at least 2", len(got), want)
	}
	if !slices.IsSortedFunc(got, func(x, y lint.Diagnostic) int { return cmp.Compare(x.Pos, y.Pos) }) {
		t.Errorf("findings out of position order: %v", got)
	}
}

// TestAnalyzersForScope pins the scope table: determinism rules guard
// the sim core, unit rules guard the whole module, and
// the event-path rule guards only the dispatch-hot packages.
func TestAnalyzersForScope(t *testing.T) {
	names := func(path string) map[string]bool {
		m := map[string]bool{}
		for _, a := range lint.AnalyzersFor(path) {
			m[a.Name] = true
		}
		return m
	}
	des := names("hyades/internal/des")
	for _, want := range []string{"detsource", "nogoroutine", "unitlit", "maprange"} {
		if !des[want] {
			t.Errorf("des: missing analyzer %s", want)
		}
	}
	flt := names("hyades/internal/fault")
	for _, want := range []string{"detsource", "nogoroutine", "maprange"} {
		if !flt[want] {
			t.Errorf("fault: missing analyzer %s (fault plans run on the event path)", want)
		}
	}
	// The crash-recovery path dispatches in engine context: peer
	// monitors in startx, crash/respawn events in cluster.
	for _, pkg := range []string{"hyades/internal/startx", "hyades/internal/cluster"} {
		rec := names(pkg)
		for _, want := range []string{"detsource", "maprange"} {
			if !rec[want] {
				t.Errorf("%s: missing analyzer %s (recovery code runs on the event path)", pkg, want)
			}
		}
	}
	gcm := names("hyades/internal/gcm/solver")
	if !gcm["detsource"] || !gcm["nogoroutine"] {
		t.Errorf("gcm subpackages must get the sim-core rules, got %v", gcm)
	}
	if gcm["maprange"] {
		t.Errorf("gcm is not an event-path package, got %v", gcm)
	}
	rep := names("hyades/internal/report")
	if rep["detsource"] || rep["nogoroutine"] || rep["maprange"] {
		t.Errorf("report is outside the sim core, got %v", rep)
	}
	if !rep["unitlit"] {
		t.Errorf("unitlit applies module-wide, got %v", rep)
	}
	// The sim core's import closure joined the core: detsource sees
	// every package the core can call into.
	for _, pkg := range []string{"hyades/internal/plates", "hyades/internal/units"} {
		if m := names(pkg); !m["detsource"] || !m["nogoroutine"] {
			t.Errorf("%s is imported by the sim core and must get its rules, got %v", pkg, m)
		}
	}
	// dimcheck runs module-wide (excepting the units package itself,
	// which legitimately crosses its own dimensions), redorder only where
	// the physics reductions live.
	for _, m := range []map[string]bool{des, gcm, rep} {
		if !m["dimcheck"] {
			t.Errorf("dimcheck must apply module-wide, got %v", m)
		}
	}
	if units := names("hyades/internal/units"); units["dimcheck"] {
		t.Errorf("dimcheck must not run inside the units package, got %v", units)
	}
	if !gcm["redorder"] {
		t.Errorf("gcm subpackages must get redorder, got %v", gcm)
	}
	if des["redorder"] || rep["redorder"] {
		t.Errorf("redorder is scoped to the gcm subtree, got des=%v rep=%v", des, rep)
	}
}

// TestRepositoryIsClean runs the full suite over every package of the
// module and requires zero findings: the machine-checked form of the
// determinism contract, and the one way to run the linter.  Skipped
// under -short; ci.sh runs it in its lint stage.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; ci.sh runs it in its lint stage")
	}
	pkgs, err := analysistest.Loader(t).Module()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages in the module", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: type errors: %v", pkg.Path, pkg.Errors[0])
		}
		for _, d := range lint.Check(pkg) {
			t.Errorf("%s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}

// TestSimCoreImportClosure holds the sim core closed under module
// imports: a package detsource checks may import the standard library
// and other such packages, nothing else from the module.  detsource
// reads one function body at a time, so this is what keeps a wall-clock
// read out of reach of the core: every module function the core can
// call lives in a package detsource checks directly.  Test files are
// exempt, as they are from the rule.
func TestSimCoreImportClosure(t *testing.T) {
	loader := analysistest.Loader(t)
	pkgs, err := loader.Module()
	if err != nil {
		t.Fatal(err)
	}
	simCore := func(path string) bool {
		return slices.Contains(lint.AnalyzersFor(path), lint.Detsource)
	}
	covered := map[string]bool{}
	for _, pkg := range pkgs {
		if !simCore(pkg.Path) {
			continue
		}
		for _, p := range lint.SimCorePackages {
			if pkg.Path == p || strings.HasPrefix(pkg.Path, p+"/") {
				covered[p] = true
			}
		}
		for _, imp := range pkg.Types.Imports() {
			path := imp.Path()
			inModule := path == loader.ModulePath || strings.HasPrefix(path, loader.ModulePath+"/")
			if inModule && !simCore(path) {
				t.Errorf("sim-core package %s imports %s, outside simCorePackages: detsource would not see a clock read there; add it to the list or drop the import", pkg.Path, path)
			}
		}
	}
	for _, p := range lint.SimCorePackages {
		if !covered[p] {
			t.Errorf("simCorePackages names %s, which holds no package", p)
		}
	}
}
