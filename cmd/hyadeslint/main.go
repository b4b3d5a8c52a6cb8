// Command hyadeslint is the multichecker for the project's determinism
// and communication-discipline analyzers (see internal/lint).  It runs
// in two modes:
//
// Standalone, over package patterns:
//
//	go run ./cmd/hyadeslint ./...
//	go run ./cmd/hyadeslint -json ./internal/comm
//	go run ./cmd/hyadeslint -fix ./...      # apply suggested fixes
//	go run ./cmd/hyadeslint -fix -n ./...   # dry run: report, touch nothing
//
// As a vet tool, speaking cmd/go's unit-checking protocol (-V=full,
// -flags, and a JSON *.cfg unit file):
//
//	go build -o /tmp/hyadeslint ./cmd/hyadeslint
//	go vet -vettool=/tmp/hyadeslint ./...
//
// Exit status: 0 clean, 1 findings, 2 load/parse/type-check errors.
// Findings go to stdout (stderr in vet mode, matching vet convention);
// operational errors always go to stderr and never masquerade as
// diagnostics.  A bad package does not abort the run: the remaining
// patterns are still checked and the exit status is 2.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
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

// options are the standalone-mode switches.
type options struct {
	jsonOut   bool
	fix       bool
	dryRun    bool
	analyzers map[string]bool // nil: the full applicable suite
}

// analyzersFor returns the applicable analyzers for the package at
// path, narrowed to the -analyzers subset when one was given.  Both
// driver modes select through it, so they agree under any subset.
func (opt options) analyzersFor(path string) []*analysis.Analyzer {
	as := lint.AnalyzersFor(path)
	if opt.analyzers == nil {
		return as
	}
	kept := as[:0:0]
	for _, a := range as {
		if opt.analyzers[a.Name] {
			kept = append(kept, a)
		}
	}
	return kept
}

func run(args []string) int {
	var patterns, unknown []string
	var cfgFile string
	var opt options
	for i := 0; i < len(args); i++ {
		arg := args[i]
		// Value flags accept both "-flag value" and "-flag=value".
		value := func() (string, bool) {
			if j := strings.IndexByte(arg, '='); j >= 0 {
				return arg[j+1:], true
			}
			if i+1 < len(args) {
				i++
				return args[i], true
			}
			return "", false
		}
		switch {
		case arg == "-V=full" || arg == "--V=full":
			return printVersion()
		case arg == "-flags" || arg == "--flags":
			// Protocol: report our flag set so cmd/go knows what it
			// may pass.  We accept none beyond the built-ins.
			fmt.Println("[]")
			return 0
		case arg == "-json" || arg == "--json":
			opt.jsonOut = true
		case arg == "-fix" || arg == "--fix":
			opt.fix = true
		case arg == "-n" || arg == "--n":
			opt.dryRun = true
		case arg == "-list" || arg == "--list":
			for _, a := range lint.Analyzers {
				fmt.Println(a.Name)
			}
			return 0
		case strings.HasPrefix(arg, "-analyzers") || strings.HasPrefix(arg, "--analyzers"):
			v, ok := value()
			if !ok {
				fmt.Fprintln(os.Stderr, "hyadeslint: -analyzers needs a comma-separated list (see -list)")
				return 2
			}
			byName := map[string]bool{}
			valid := make([]string, 0, len(lint.Analyzers))
			for _, a := range lint.Analyzers {
				byName[a.Name] = true
				valid = append(valid, a.Name)
			}
			opt.analyzers = map[string]bool{}
			for _, name := range strings.Split(v, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if !byName[name] {
					fmt.Fprintf(os.Stderr, "hyadeslint: unknown analyzer %q; valid names: %s\n",
						name, strings.Join(valid, ", "))
					return 2
				}
				opt.analyzers[name] = true
			}
			if len(opt.analyzers) == 0 {
				fmt.Fprintln(os.Stderr, "hyadeslint: -analyzers selected nothing")
				return 2
			}
		case arg == "-h" || arg == "-help" || arg == "--help":
			usage()
			return 0
		case strings.HasSuffix(arg, ".cfg"):
			cfgFile = arg
		case strings.HasPrefix(arg, "-"):
			// Tolerated from cmd/go (e.g. -c=N), refused standalone.
			unknown = append(unknown, arg)
		default:
			patterns = append(patterns, arg)
		}
	}
	if cfgFile != "" {
		return runVetUnit(cfgFile, opt)
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "hyadeslint: unknown flag %s (see -help)\n", unknown[0])
		return 2
	}
	if len(patterns) == 0 {
		usage()
		return 2
	}
	return runStandalone(patterns, opt)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hyadeslint [-json] [-fix [-n]] [-analyzers a,b] <package patterns>\n")
	fmt.Fprintf(os.Stderr, "   or: go vet -vettool=$(which hyadeslint) <packages>\n\nflags:\n")
	fmt.Fprintf(os.Stderr, "  -json         emit findings as JSON\n")
	fmt.Fprintf(os.Stderr, "  -fix          apply suggested fixes in place\n")
	fmt.Fprintf(os.Stderr, "  -n            with -fix: dry run, modify nothing\n")
	fmt.Fprintf(os.Stderr, "  -analyzers    run only this comma-separated subset\n")
	fmt.Fprintf(os.Stderr, "  -list         print the analyzer names and exit\n\nanalyzers:\n")
	for _, a := range lint.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// printVersion implements the -V=full handshake cmd/go uses to key the
// vet cache: the reported ID must change when the tool's code changes,
// so it embeds a digest of the executable.
func printVersion() int {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil)[:12])
	return 0
}

// runStandalone loads the matched packages, collects every finding,
// and emits them once, globally normalized, in the selected format.
func runStandalone(patterns []string, opt options) int {
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
		diags, err := lint.CheckWith(pkg, opt.analyzersFor(path))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
			continue
		}
		all = append(all, diags...)
	}
	findings := emit.Normalize(emit.Findings(loader.Fset, loader.ModuleRoot, all))
	if opt.fix {
		if err := applyFixes(loader.Fset, all, opt.dryRun); err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			status = 2
		}
	}
	render := emit.Text
	if opt.jsonOut {
		render = emit.JSON
	}
	if emitErr := render(os.Stdout, findings); emitErr != nil {
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

// vetConfig is the unit-file schema cmd/go hands a -vettool (the same
// JSON x/tools' unitchecker consumes).  Fields we do not need are kept
// so unmarshalling stays strict about nothing and forward-compatible.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one compilation unit described by a cfg file.
// Imports are re-resolved from source (module tree + $GOROOT/src)
// rather than from the export data cmd/go supplies, so the tool stays
// independent of export-data format details.  An -analyzers subset is
// honored exactly as in standalone mode, so the two modes stay
// byte-identical under the same selection.
func runVetUnit(cfgFile string, opt options) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hyadeslint: parsing %s: %v\n", cfgFile, err)
		return 2
	}
	// Always satisfy the facts side of the protocol first: downstream
	// units ask for our (empty) facts file even when this unit is
	// skipped.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("hyadeslint: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// The determinism contract governs simulation code, not tests:
	// skip test variants ("pkg [pkg.test]", "pkg.test", "pkg_test").
	if strings.Contains(cfg.ImportPath, " [") || strings.HasSuffix(cfg.ImportPath, ".test") ||
		strings.HasSuffix(cfg.ImportPath, "_test") {
		return 0
	}
	loader, err := load.NewLoader(cfg.Dir)
	if err != nil {
		// Outside any module (e.g. vetting GOROOT): nothing of ours
		// applies.
		return 0
	}
	pkg := &load.Package{Path: cfg.ImportPath, Dir: cfg.Dir, Fset: loader.Fset}
	for _, fname := range cfg.GoFiles {
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(loader.Fset, fname, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyadeslint:", err)
			return 2
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, fname)
	}
	if len(pkg.Files) == 0 {
		return 0
	}
	if err := loader.CheckFiles(pkg); err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "hyadeslint: %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	diags, err := lint.CheckWith(pkg, opt.analyzersFor(pkg.Path))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	// Vet mode keeps absolute paths (cmd/go rewrites them) but shares
	// the standalone normalization, so both modes are byte-stable.
	findings := emit.Normalize(emit.Findings(pkg.Fset, "", diags))
	if opt.jsonOut {
		return printVetJSON(cfg, findings)
	}
	if err := emit.Text(os.Stderr, findings); err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// vetJSONDiag mirrors the diagnostic shape `go vet -json` consumers
// expect from a unit-checking tool.
type vetJSONDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// printVetJSON emits {"pkg": {"analyzer": [diag...]}} on stdout.
func printVetJSON(cfg vetConfig, findings []emit.Finding) int {
	byAnalyzer := map[string][]vetJSONDiag{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], vetJSONDiag{
			Posn:    fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col),
			Message: f.Message,
		})
	}
	out := map[string]map[string][]vetJSONDiag{cfg.ImportPath: byAnalyzer}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "hyadeslint:", err)
		return 2
	}
	return 0
}
