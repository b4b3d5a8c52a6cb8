// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) used by the hyadeslint suite.
//
// The upstream module is deliberately not imported: the build must stay
// hermetic on an offline machine with an empty module cache, and the
// slice of the API the suite needs — syntax plus type information per
// package, a Report callback, and a driver — is small enough to restate
// on top of the standard library's go/ast, go/token and go/types.  The
// types are shaped like their x/tools namesakes so the analyzers would
// port to the real framework by changing one import path.
//
// # Suppression
//
// The driver honours an allowlist annotation, the suite's single escape
// hatch:
//
//	//lint:allow <analyzer-name> [reason]
//
// placed on the flagged line or on the line immediately above it.  The
// annotation names exactly one analyzer; a finding from any other
// analyzer on the same line is still reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow annotations.  It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer
	// enforces and why.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.  The returned value is unused by this
	// driver but kept for x/tools signature compatibility.
	Run func(pass *Pass) (interface{}, error)
}

// A Pass provides one analyzer with the syntax trees and type
// information of one package, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a finding.  Installed by the driver.
	Report func(Diagnostic)
}

// Reportf records a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver

	// SuggestedFixes are machine-applicable rewrites that resolve the
	// finding.  A driver in -fix mode applies the edits of every fix;
	// other drivers ignore them.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite resolving a finding.
// All edits of one fix are applied together or not at all.
type SuggestedFix struct {
	// Message describes the rewrite, e.g. "write 500 * units.Picosecond".
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
// Pos == End inserts; empty NewText deletes.
type TextEdit struct {
	Pos, End token.Pos
	NewText  []byte
}

// Position resolves the diagnostic's position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// allowRE matches the suppression annotation.  The comment marker may
// be followed by optional space, then "lint:allow <name>".
var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z_][A-Za-z0-9_]*)`)

// allowKey identifies one suppressed (file line, analyzer) pair.
type allowKey struct {
	file string
	line int
	name string
}

// allowlist extracts every //lint:allow annotation in files, keyed so
// that both the annotated line and the line below it are suppressed.
func allowlist(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allow := map[allowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				allow[allowKey{pos.Filename, pos.Line, m[1]}] = true
				allow[allowKey{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	return allow
}

// RunPass applies one analyzer to one package, filters findings through
// the //lint:allow allowlist, and returns the surviving diagnostics in
// deterministic (file, line, column, message) order.
func RunPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	allow := allowlist(fset, files)
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			d.Analyzer = a.Name
			p := fset.Position(d.Pos)
			if allow[allowKey{p.Filename, p.Line, a.Name}] {
				return
			}
			diags = append(diags, d)
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	Sort(fset, diags)
	return diags, nil
}

// Sort orders diagnostics by file, line, column, then message, so the
// checker's output is reproducible run to run.
func Sort(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
