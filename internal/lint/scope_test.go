package lint

import (
	"go/build"
	"strings"
	"testing"

	"hyades/internal/lint/load"
)

// TestSimCoreImportClosure holds simCorePackages closed under module
// imports: a sim-core package may import the standard library and other
// sim-core packages, nothing else from the module.  detsource reads one
// function body at a time, so this is what keeps a wall-clock read out
// of reach of the core — every module function the core can call lives
// in a package detsource checks directly.  Test files are exempt, as
// they are from the rule.
func TestSimCoreImportClosure(t *testing.T) {
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Patterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, dir := range dirs {
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !underAny(path, simCorePackages) {
			continue
		}
		for _, p := range simCorePackages {
			if underAny(path, []string{p}) {
				covered[p] = true
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range bp.Imports {
			inModule := imp == loader.ModulePath || strings.HasPrefix(imp, loader.ModulePath+"/")
			if inModule && !underAny(imp, simCorePackages) {
				t.Errorf("sim-core package %s imports %s, outside simCorePackages: detsource would not see a clock read there; add it to the list or drop the import", path, imp)
			}
		}
	}
	for _, p := range simCorePackages {
		if !covered[p] {
			t.Errorf("simCorePackages names %s, which holds no package", p)
		}
	}
}
