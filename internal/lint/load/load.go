// Package load parses and type-checks the packages of this module for
// the analyzers of package lint, using only the standard library, so it
// resolves imports itself:
//
//   - imports inside this module ("hyades/...") are located by path
//     arithmetic against the module root and type-checked from source,
//     recursively;
//   - standard-library imports are delegated to go/importer's "source"
//     importer, which type-checks $GOROOT/src and therefore needs no
//     pre-compiled export data and no network.
//
// Test files (*_test.go) are excluded: the determinism contract governs
// simulation code, and tests legitimately use wall-clock timeouts and
// ad-hoc randomness.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package.
type Package struct {
	Path      string // import path
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
	Errors    []error // type-checking errors, if any
}

// A Loader loads packages of one module, caching every package (module
// or stdlib) so repeated imports type-check once per process.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path declared in go.mod
	GoVersion  string // "go1.22"-style language version from go.mod

	std  types.Importer      // source importer for GOROOT packages
	pkgs map[string]*Package // import path -> loaded module package
}

var (
	moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)
	goVerRE  = regexp.MustCompile(`(?m)^go\s+(\d+(?:\.\d+)*)`)
)

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// NewLoader creates a loader for the module rooted at (or above) dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("load: no module line in %s/go.mod", root)
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: string(m[1]),
		pkgs:       map[string]*Package{},
	}
	if v := goVerRE.FindSubmatch(data); v != nil {
		l.GoVersion = "go" + string(v[1])
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// Import implements types.Importer, resolving module-internal paths
// from source and delegating everything else to the stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the non-test Go files of one
// directory under the given import path.  Results are cached by path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %v", importPath, err)
	}
	pkg := &Package{Path: importPath, Fset: l.Fset}
	for _, name := range names {
		fname := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %v", importPath, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, fname)
	}
	// Cache before checking: import cycles would otherwise recurse
	// forever.  (The go toolchain rejects true cycles before we ever
	// run, so a re-entrant Load during Check cannot happen for code
	// that builds; this is belt and braces.)
	l.pkgs[importPath] = pkg
	l.check(pkg)
	return pkg, nil
}

// check type-checks pkg's parsed files, filling Info and Types and
// recording every type error in Errors.
func (l *Loader) check(pkg *Package) {
	pkg.Info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer:  l,
		GoVersion: l.GoVersion,
		Error:     func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
}

// goFilesIn lists the buildable non-test Go files of dir, honouring
// build constraints via go/build, in sorted order.
func goFilesIn(dir string) ([]string, error) {
	ctx := build.Default
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	return names, nil
}

// Module loads every package of the module, in path order: each
// directory under the root that holds buildable non-test Go files,
// skipping testdata and vendor directories and hidden or
// underscore-prefixed ones, as the go tool's "./..." does.
func (l *Loader) Module() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.ModuleRoot, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != l.ModuleRoot && (base == "testdata" || base == "vendor" ||
			strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if names, err := goFilesIn(dir); err != nil || len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	return pkgs, err
}
