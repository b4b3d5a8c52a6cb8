// Command hyadeslint is the multichecker for the project's determinism
// analyzers (see internal/lint):
//
//	go run ./cmd/hyadeslint ./...
//	go run ./cmd/hyadeslint -fix ./...      # apply suggested fixes
//	go run ./cmd/hyadeslint -fix -n ./...   # dry run: report, touch nothing
//
// Exit status: 0 clean, 1 findings, 2 usage or load/parse/type-check
// errors.  Findings go to stdout; operational errors go to stderr and
// never masquerade as diagnostics.  A bad package does not abort the
// run: the remaining patterns are still checked and the exit status is
// 2.
package main

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"hyades/internal/lint"
	"hyades/internal/lint/analysis"
	"hyades/internal/lint/emit"
	"hyades/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var patterns []string
	var fix, dryRun bool
	for _, arg := range args {
		switch {
		case arg == "-fix" || arg == "--fix":
			fix = true
		case arg == "-n" || arg == "--n":
			dryRun = true
		case arg == "-h" || arg == "-help" || arg == "--help":
			usage()
			return 0
		case strings.HasPrefix(arg, "-"):
			fmt.Fprintf(os.Stderr, "hyadeslint: unknown flag %s (see -help)\n", arg)
			return 2
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		usage()
		return 2
	}
	return check(patterns, fix, dryRun)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hyadeslint [-fix [-n]] <package patterns>\n\nflags:\n")
	fmt.Fprintf(os.Stderr, "  -fix          apply suggested fixes in place\n")
	fmt.Fprintf(os.Stderr, "  -n            with -fix: dry run, modify nothing\n\nanalyzers:\n")
	for _, a := range lint.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// check loads the matched packages, collects every finding, and emits
// them once, globally normalized.
func check(patterns []string, fix, dryRun bool) int {
	loader, err := load.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	dirs, err := loader.Patterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	status := 0
	var all []analysis.Diagnostic
	for _, dir := range dirs {
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
			continue
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
			continue
		}
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				fmt.Fprintf(os.Stderr, "hyadeslint: %s: %v\n", path, e)
			}
			status = 2
			continue
		}
		diags, err := lint.Check(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
			continue
		}
		all = append(all, diags...)
	}
	findings := emit.Normalize(emit.Findings(loader.Fset, loader.ModuleRoot, all))
	if fix {
		if err := applyFixes(loader.Fset, all, dryRun); err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
		}
	}
	if emitErr := emit.Text(os.Stdout, findings); emitErr != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", emitErr)
		return 2
	}
	if status == 0 && len(findings) > 0 {
		status = 1
	}
	return status
}

// applyFixes gathers every suggested edit, groups them by file, and
// rewrites the files (unless dryRun).  Overlapping edits are skipped:
// edits are applied back to front so earlier offsets stay valid.
func applyFixes(fset *token.FileSet, diags []analysis.Diagnostic, dryRun bool) error {
	type edit struct {
		start, end int
		text       []byte
	}
	byFile := map[string][]edit{}
	for _, d := range diags {
		for _, fix := range d.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := fset.Position(te.Pos)
				end := start
				if te.End.IsValid() {
					end = fset.Position(te.End)
				}
				if end.Filename != start.Filename || end.Offset < start.Offset {
					return fmt.Errorf("fix for %s: invalid edit range", start.Filename)
				}
				byFile[start.Filename] = append(byFile[start.Filename],
					edit{start: start.Offset, end: end.Offset, text: te.NewText})
			}
		}
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, fname := range files {
		edits := byFile[fname]
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].start != edits[j].start {
				return edits[i].start > edits[j].start // back to front
			}
			return edits[i].end > edits[j].end
		})
		src, err := os.ReadFile(fname)
		if err != nil {
			return err
		}
		out := src
		applied := 0
		lastStart := len(src) + 1
		for _, e := range edits {
			if e.end > lastStart || e.end > len(out) {
				continue // overlaps a previously applied edit, or stale
			}
			out = append(out[:e.start:e.start], append(append([]byte(nil), e.text...), out[e.end:]...)...)
			lastStart = e.start
			applied++
		}
		if applied == 0 {
			continue
		}
		if dryRun {
			fmt.Fprintf(os.Stderr, "hyadeslint: would rewrite %s (%d edits)\n", fname, applied)
			continue
		}
		if err := os.WriteFile(fname, out, 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hyadeslint: rewrote %s (%d edits)\n", fname, applied)
	}
	return nil
}
