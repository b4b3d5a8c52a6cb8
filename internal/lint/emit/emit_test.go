package emit

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// sample is a fixed findings list exercising ordering (files out of
// order, two analyzers at one position) and deduplication (an exact
// (file, offset, analyzer, message) repeat that must be dropped;
// same-position same-analyzer findings with distinct messages must
// both survive).
func sample() []Finding {
	return Normalize([]Finding{
		{File: "internal/gcm/gcm.go", Line: 88, Col: 3, Analyzer: "redorder",
			Message: "manual floating-point accumulation onto total feeds a global sum", offset: 2300},
		{File: "internal/comm/coupled.go", Line: 41, Col: 10, Analyzer: "dimcheck",
			Message: "arithmetic mixes units.Time and units.Bandwidth through raw numeric conversions", offset: 905},
		{File: "internal/comm/coupled.go", Line: 41, Col: 10, Analyzer: "detsource",
			Message: "time.Now reads the wall clock and breaks simulation determinism", offset: 905},
		{File: "internal/comm/coupled.go", Line: 41, Col: 10, Analyzer: "detsource",
			Message: "time.Now reads the wall clock and breaks simulation determinism", offset: 905},
	})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/lint/emit -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestNormalizeOrderAndDedup(t *testing.T) {
	fs := sample()
	if len(fs) != 3 {
		t.Fatalf("Normalize kept %d findings, want 3 (one duplicate dropped)", len(fs))
	}
	// coupled.go sorts before gcm.go; at equal position detsource sorts
	// before dimcheck.
	if fs[0].Analyzer != "detsource" || fs[1].Analyzer != "dimcheck" || fs[2].Analyzer != "redorder" {
		t.Errorf("order = %s, %s, %s", fs[0].Analyzer, fs[1].Analyzer, fs[2].Analyzer)
	}
	if fs[0].Message != "time.Now reads the wall clock and breaks simulation determinism" {
		t.Errorf("dedup kept the wrong duplicate: %q", fs[0].Message)
	}
}

// TestNormalizeKeepsDistinctMessages: one analyzer may report several
// distinct problems at one position; dedup must only drop exact
// repeats.
func TestNormalizeKeepsDistinctMessages(t *testing.T) {
	fs := Normalize([]Finding{
		{File: "a.go", Line: 3, Col: 1, Analyzer: "dimcheck",
			Message: "units.Time value converted directly to units.Bandwidth", offset: 40},
		{File: "a.go", Line: 3, Col: 1, Analyzer: "dimcheck",
			Message: "units.Size value converted directly to units.Bandwidth", offset: 40},
	})
	if len(fs) != 2 {
		t.Fatalf("Normalize kept %d findings, want 2 (distinct messages at one position)", len(fs))
	}
}

func TestTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Text(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "findings.txt.golden", buf.Bytes())
}
