package main

import (
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
// wrote (usage and operational errors).
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

// TestScratchStandalone: the planted unitless duration is flagged with
// exit status 1.
func TestScratchStandalone(t *testing.T) {
	var status int
	out := capture(t, func() {
		status = run([]string{"./cmd/hyadeslint/testdata/scratch"})
	})
	if status != 1 {
		t.Fatalf("exit status = %d, want 1\noutput:\n%s", status, out)
	}
	if !strings.Contains(out, "scratch.go:11:15:") || !strings.Contains(out, "(unitlit)") {
		t.Errorf("missing unitlit finding in output:\n%s", out)
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
	if !strings.Contains(out, "(unitlit)") {
		t.Errorf("bad package aborted the run; missing scratch finding:\n%s", out)
	}

	// The flag set is exactly what usage() lists: a retired or
	// misspelled flag is a usage error, never silently ignored.
	retired := []string{"-sarif", "-baseline", "-writebaseline", "-writebudget", "-json", "-list", "-analyzers", "-V=full", "-flags"}
	for _, flag := range retired {
		msg := captureStderr(t, func() {
			status = run([]string{flag, "./internal/units"})
		})
		if status != 2 || !strings.Contains(msg, "unknown flag "+flag) {
			t.Errorf("%s: status %d, stderr %q; want 2 and an unknown-flag error", flag, status, msg)
		}
	}
	usageText := captureStderr(t, func() { status = run([]string{"-help"}) })
	for _, flag := range []string{"-fix", "-n"} {
		if !strings.Contains(usageText, "  "+flag+" ") {
			t.Errorf("usage does not list %s:\n%s", flag, usageText)
		}
	}
	for _, gone := range retired {
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
