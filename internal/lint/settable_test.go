package lint_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hyades/internal/lint/analysistest"
)

// flagDefiners are the package flag functions and *flag.FlagSet
// methods that declare a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

// settableStruct matches the option-carrying struct names the count
// covers.
var settableStruct = regexp.MustCompile(`(Config|Opts|Params)$`)

// ceilingRE finds the ceiling DESIGN.md records beside the line budget.
var ceilingRE = regexp.MustCompile(`(?m)^Settable values: (\d+)`)

// TestSettableValues is the ratchet on options: it counts every value
// a caller can set — each exported field of an exported *Config, *Opts
// or *Params struct, each flag declared and each environment variable
// read — in the non-test code outside benchmark/, and fails when the
// count exceeds the ceiling DESIGN.md records ("Line budget").  A new
// knob raises that number in a reviewed diff; a removed one lowers it.
func TestSettableValues(t *testing.T) {
	loader := analysistest.Loader(t)
	pkgs, err := loader.Module()
	if err != nil {
		t.Fatal(err)
	}
	bench := loader.ModulePath + "/benchmark"
	var found []string
	for _, pkg := range pkgs {
		if pkg.Path == bench || strings.HasPrefix(pkg.Path, bench+"/") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !n.Name.IsExported() || !settableStruct.MatchString(n.Name.Name) {
						return true
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if name.IsExported() {
								found = append(found, pkg.Path+"."+n.Name.Name+"."+name.Name)
							}
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					switch path, name := fn.Pkg().Path(), fn.Name(); {
					case path == "flag" && flagDefiners[name],
						path == "os" && (name == "Getenv" || name == "LookupEnv"):
						pos := pkg.Fset.Position(n.Pos())
						rel, _ := filepath.Rel(loader.ModuleRoot, pos.Filename)
						found = append(found, fmt.Sprintf("%s:%d: %s.%s", filepath.ToSlash(rel), pos.Line, path, name))
					}
				}
				return true
			})
		}
	}
	design, err := os.ReadFile(filepath.Join(loader.ModuleRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := ceilingRE.FindSubmatch(design)
	if m == nil {
		t.Fatal(`DESIGN.md records no "Settable values: N" line`)
	}
	ceiling, _ := strconv.Atoi(string(m[1]))
	t.Logf("%d settable values, ceiling %d", len(found), ceiling)
	if len(found) > ceiling {
		t.Errorf("%d settable values exceed the ceiling of %d in DESIGN.md; a new option needs two callers that want different values, and then raises the ceiling in the same diff:\n%s",
			len(found), ceiling, strings.Join(found, "\n"))
	}
}
