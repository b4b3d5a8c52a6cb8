// Package analysistest runs one analyzer of package lint over fixture
// packages and checks its diagnostics against // want annotations.
//
// Fixtures live under <testdata>/src/<pkgpath>/.  A line that should be
// flagged carries a trailing annotation:
//
//	time.Now() // want `time\.Now reads the wall clock`
//
// The annotation payload is one or more Go string literals (quoted or
// backquoted), each a regexp that must match one diagnostic reported on
// that line.  Lines without annotations must produce no diagnostics.
// The //lint:allow escape hatch is honoured, so fixtures can assert
// that an annotated line is NOT flagged simply by carrying no want.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyades/internal/lint"
	"hyades/internal/lint/load"
)

// The loader is shared by every test of the binary, fixtures and module
// alike, so the standard library is type-checked once.
var (
	loaderOnce sync.Once
	loader     *load.Loader
	loaderErr  error
)

// Loader returns the test binary's one loader, for the module holding
// the working directory.
func Loader(t *testing.T) *load.Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = load.NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("analysistest: %v", loaderErr)
	}
	return loader
}

// want is one expectation: a diagnostic matching rx on (file, line).
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads each fixture package under testdata/src and applies a,
// failing t on any mismatch between diagnostics and // want comments.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgpaths ...string) {
	t.Helper()
	loader := Loader(t)
	for _, pkgpath := range pkgpaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
		pkg, err := loader.LoadDir(dir, pkgpath)
		if err != nil {
			t.Errorf("%s: load: %v", pkgpath, err)
			continue
		}
		if len(pkg.Errors) > 0 {
			t.Errorf("%s: fixture does not type-check: %v", pkgpath, pkg.Errors)
			continue
		}
		wants, err := parseWants(pkg.Filenames)
		if err != nil {
			t.Errorf("%s: %v", pkgpath, err)
			continue
		}
		for _, d := range lint.Run(a, pkg) {
			pos := pkg.Fset.Position(d.Pos)
			if !claim(wants, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
			}
		}
	}
}

// claim marks the first unmatched want on (file, line) whose regexp
// matches message, reporting whether one existed.
func claim(wants []*want, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.rx.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE locates the annotation marker.  Wants are recognised only in
// trailing position (after code or at the start of a comment line).
var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseWants scans fixture sources for // want annotations.
func parseWants(filenames []string) ([]*want, error) {
	var wants []*want
	for _, fname := range filenames {
		data, err := os.ReadFile(fname)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			patterns, err := parsePatterns(strings.TrimSpace(m[1]))
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want: %v", fname, i+1, err)
			}
			for _, p := range patterns {
				rx, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", fname, i+1, p, err)
				}
				wants = append(wants, &want{file: fname, line: i + 1, rx: rx, raw: p})
			}
		}
	}
	return wants, nil
}

// parsePatterns splits a want payload into its string-literal patterns.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for s != "" {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string")
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			// Find the closing quote, honouring escapes.
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated string")
			}
			uq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, uq)
			s = s[end+1:]
		default:
			return nil, fmt.Errorf("expected string literal, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want")
	}
	return out, nil
}
