package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyades/internal/lint/load"
)

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// wrote (vet mode reports findings on stderr, matching vet).
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stderr = old
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// vetUnit writes the .cfg file cmd/go would hand a -vettool for the
// one-file fixture package at the module-relative dir, and returns its
// path.
func vetUnit(t *testing.T, dir, file string) string {
	t.Helper()
	abs := filepath.Join(moduleRoot(t), filepath.FromSlash(dir))
	cfg := map[string]interface{}{
		"ID":         "hyades/" + dir,
		"Compiler":   "source",
		"Dir":        abs,
		"ImportPath": "hyades/" + dir,
		"GoVersion":  "go1.22",
		"GoFiles":    []string{filepath.Join(abs, file)},
		"VetxOutput": filepath.Join(t.TempDir(), "unit.vetx"),
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// TestScratchStandalone: the seeded rank-conditional GlobalSum is
// flagged in standalone mode with exit status 1.
func TestScratchStandalone(t *testing.T) {
	var status int
	out := capture(t, func() {
		status = run([]string{"./cmd/hyadeslint/testdata/scratch"})
	})
	if status != 1 {
		t.Fatalf("exit status = %d, want 1\noutput:\n%s", status, out)
	}
	if !strings.Contains(out, "commlock") || !strings.Contains(out, "GlobalSum") {
		t.Errorf("missing commlock finding in output:\n%s", out)
	}
}

// TestScratchVetUnit drives the cmd/go unit-checking protocol in
// process: a crafted .cfg file naming the scratch package must produce
// the same commlock finding and exit status 1.
func TestScratchVetUnit(t *testing.T) {
	cfgPath := vetUnit(t, "cmd/hyadeslint/testdata/scratch", "scratch.go")
	if status := run([]string{cfgPath}); status != 1 {
		t.Fatalf("vet-unit exit status = %d, want 1", status)
	}
}

// TestCrossModeAgreement: the standalone driver and the go-vet unit
// protocol must produce the identical ordered finding list for the
// planted fixture (a wall-clock read and a raw go statement in a
// package under internal/des).
func TestCrossModeAgreement(t *testing.T) {
	root := moduleRoot(t)

	var standaloneStatus int
	standalone := capture(t, func() {
		standaloneStatus = run([]string{"./internal/des/testdata/planted"})
	})
	if standaloneStatus != 1 {
		t.Fatalf("standalone status = %d, want 1\n%s", standaloneStatus, standalone)
	}

	cfgPath := vetUnit(t, "internal/des/testdata/planted", "planted.go")
	var vetStatus int
	vet := captureStderr(t, func() {
		vetStatus = run([]string{cfgPath})
	})
	if vetStatus != 1 {
		t.Fatalf("vet-unit status = %d, want 1\n%s", vetStatus, vet)
	}

	// Vet mode keeps absolute paths (cmd/go rewrites them); relativize
	// to the module root, after which the two outputs must be
	// byte-identical — same findings, same order, same dedup.
	vet = strings.ReplaceAll(vet, root+string(filepath.Separator), "")
	if standalone != vet {
		t.Errorf("modes disagree\nstandalone:\n%s\nvet:\n%s", standalone, vet)
	}

	for _, want := range []string{
		"internal/des/testdata/planted/planted.go:17:9: time.Now reads the wall clock",
		"(detsource)",
		"internal/des/testdata/planted/planted.go:22:2: raw go statement",
		"(nogoroutine)",
	} {
		if !strings.Contains(standalone, want) {
			t.Errorf("missing %q in findings:\n%s", want, standalone)
		}
	}
}

// TestExitCodes: clean package -> 0, findings -> 1, parse errors -> 2
// (on stderr, not as diagnostics), and a bad package does not abort
// the rest of the run.
func TestExitCodes(t *testing.T) {
	var status int
	out := capture(t, func() {
		status = run([]string{"./internal/units"})
	})
	if status != 0 || out != "" {
		t.Errorf("clean package: status %d output %q, want 0 and empty", status, out)
	}

	root := moduleRoot(t)
	bad, err := os.MkdirTemp(filepath.Join(root, "cmd", "hyadeslint", "testdata"), "bad")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(bad)
	if err := os.WriteFile(filepath.Join(bad, "bad.go"), []byte("package bad\nfunc (\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, bad)
	if err != nil {
		t.Fatal(err)
	}
	// The broken package reports status 2, and the scratch findings
	// after it are still emitted.
	out = capture(t, func() {
		status = run([]string{"./" + filepath.ToSlash(rel), "./cmd/hyadeslint/testdata/scratch"})
	})
	if status != 2 {
		t.Errorf("parse error: status = %d, want 2", status)
	}
	if !strings.Contains(out, "commlock") {
		t.Errorf("bad package aborted the run; missing scratch finding:\n%s", out)
	}

	// The flag set is exactly what usage() lists: a retired or
	// misspelled flag is a usage error, never silently ignored.
	for _, flag := range []string{"-sarif", "-baseline=lint/baseline.json", "-writebaseline", "-writebudget"} {
		msg := captureStderr(t, func() {
			status = run([]string{flag, "./internal/units"})
		})
		if status != 2 || !strings.Contains(msg, "unknown flag "+flag) {
			t.Errorf("%s: status %d, stderr %q; want 2 and an unknown-flag error", flag, status, msg)
		}
	}
	usageText := captureStderr(t, func() { status = run([]string{"-help"}) })
	for _, flag := range []string{"-json", "-fix", "-n", "-analyzers", "-list"} {
		if !strings.Contains(usageText, "  "+flag+" ") {
			t.Errorf("usage does not list %s:\n%s", flag, usageText)
		}
	}
	for _, gone := range []string{"-sarif", "-baseline", "-writebaseline", "-writebudget"} {
		if strings.Contains(usageText, gone) {
			t.Errorf("usage still lists retired flag %s:\n%s", gone, usageText)
		}
	}
}

// fixtureCopy creates a throwaway package inside the module tree (the
// loader refuses directories outside it) with one fixable finding.
// It returns a loader pattern and the fixture file's absolute path.
func fixtureCopy(t *testing.T) (pattern, file string) {
	t.Helper()
	root := moduleRoot(t)
	dir, err := os.MkdirTemp(filepath.Join(root, "cmd", "hyadeslint", "testdata"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	file = filepath.Join(dir, "fixme.go")
	src := "package fixme\n\nimport \"hyades/internal/units\"\n\nconst grain = units.Time(500)\n"
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	return "./" + filepath.ToSlash(rel), file
}

// TestFixApplies: -fix rewrites units.Time(500) into the
// value-preserving 500 * units.Picosecond form, after which the
// package is clean.
func TestFixApplies(t *testing.T) {
	pattern, file := fixtureCopy(t)
	var status int
	capture(t, func() { status = run([]string{"-fix", pattern}) })
	if status != 1 {
		t.Fatalf("fix run status = %d, want 1 (findings were present)", status)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "500 * units.Picosecond") {
		t.Fatalf("fix not applied:\n%s", got)
	}
	capture(t, func() { status = run([]string{pattern}) })
	if status != 0 {
		t.Errorf("fixed package still flagged (status %d):\n%s", status, got)
	}
}

// TestFixDryRun: -fix -n reports but modifies nothing.
func TestFixDryRun(t *testing.T) {
	pattern, file := fixtureCopy(t)
	before, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var status int
	capture(t, func() { status = run([]string{"-fix", "-n", pattern}) })
	if status != 1 {
		t.Fatalf("dry-run status = %d, want 1", status)
	}
	after, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("dry run modified the file:\n%s", after)
	}
}

// TestAnalyzerSubset: -analyzers narrows both driver modes to the
// same subset, and an unknown name is a usage error that names the
// valid set instead of leaving the user to guess.
func TestAnalyzerSubset(t *testing.T) {
	// Unknown name: exit 2 with the full valid-name list on stderr.
	var status int
	msg := captureStderr(t, func() {
		status = run([]string{"-analyzers", "nosuch", "./internal/units"})
	})
	if status != 2 {
		t.Fatalf("unknown analyzer: status = %d, want 2\n%s", status, msg)
	}
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) || !strings.Contains(msg, "valid names:") {
		t.Errorf("error does not name the problem:\n%s", msg)
	}
	valid := []string{"detsource", "nogoroutine", "unitlit", "maprange",
		"commlock", "dimcheck", "redorder"}
	if !strings.Contains(msg, "valid names: "+strings.Join(valid, ", ")+"\n") {
		t.Errorf("valid-name list is not the seven analyzers %v:\n%s", valid, msg)
	}

	// Standalone: a subset that excludes the scratch fixture's rule
	// turns the run clean; selecting the rule keeps the finding.
	out := capture(t, func() {
		status = run([]string{"-analyzers", "detsource", "./cmd/hyadeslint/testdata/scratch"})
	})
	if status != 0 || out != "" {
		t.Errorf("subset without commlock: status %d output %q, want 0 and empty", status, out)
	}
	out = capture(t, func() {
		status = run([]string{"-analyzers=commlock", "./cmd/hyadeslint/testdata/scratch"})
	})
	if status != 1 || !strings.Contains(out, "commlock") {
		t.Errorf("subset with commlock: status %d\n%s", status, out)
	}

	// Vet-unit mode must honor the same subset: the planted fixture
	// trips detsource and nogoroutine; selecting only detsource drops
	// nogoroutine and stays byte-identical with standalone.
	root := moduleRoot(t)
	cfgPath := vetUnit(t, "internal/des/testdata/planted", "planted.go")
	var vetStatus int
	vet := captureStderr(t, func() {
		vetStatus = run([]string{"-analyzers=detsource", cfgPath})
	})
	if vetStatus != 1 {
		t.Fatalf("vet-unit subset status = %d, want 1\n%s", vetStatus, vet)
	}
	standalone := capture(t, func() {
		status = run([]string{"-analyzers=detsource", "./internal/des/testdata/planted"})
	})
	if status != 1 {
		t.Fatalf("standalone subset status = %d, want 1\n%s", status, standalone)
	}
	vet = strings.ReplaceAll(vet, root+string(filepath.Separator), "")
	if standalone != vet {
		t.Errorf("modes disagree under -analyzers\nstandalone:\n%s\nvet:\n%s", standalone, vet)
	}
	if !strings.Contains(vet, "detsource") {
		t.Errorf("selected analyzer missing from vet-unit output:\n%s", vet)
	}
	if strings.Contains(vet, "nogoroutine") {
		t.Errorf("vet-unit mode ignored the -analyzers subset:\n%s", vet)
	}
}
