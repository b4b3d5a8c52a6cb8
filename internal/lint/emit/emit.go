// Package emit renders hyadeslint diagnostics as text, one line each.
//
// The output is byte-stable: findings are normalized — sorted by
// (file, offset, analyzer, message), exact repeats dropped — before
// rendering, and paths are module-relative with forward slashes, so two
// runs over the same tree produce identical bytes.
package emit

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"hyades/internal/lint/analysis"
)

// A Finding is one rendered diagnostic.
type Finding struct {
	File     string // module-relative, forward slashes
	Line     int
	Col      int
	Analyzer string
	Message  string

	offset int // byte offset in file; sorting and dedup key
}

// Findings resolves diagnostics against fset, relativizing paths to
// root.
func Findings(fset *token.FileSet, root string, diags []analysis.Diagnostic) []Finding {
	fs := make([]Finding, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		fs = append(fs, Finding{
			File:     file,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			offset:   pos.Offset,
		})
	}
	return fs
}

// Normalize sorts by (file, offset, analyzer, message) and drops
// exact duplicates.  The message is part of the identity: one analyzer
// may report two different problems at one position, and both are kept.
func Normalize(fs []Finding) []Finding {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.offset != b.offset {
			return a.offset < b.offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f.File == out[len(out)-1].File &&
			f.offset == out[len(out)-1].offset &&
			f.Analyzer == out[len(out)-1].Analyzer &&
			f.Message == out[len(out)-1].Message {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Text writes the classic one-line-per-finding form.
func Text(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer); err != nil {
			return err
		}
	}
	return nil
}
