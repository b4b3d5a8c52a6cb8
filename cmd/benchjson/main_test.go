package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseLine: parseLine never panics, and every line it accepts is
// a Benchmark result whose metrics the artifact's JSON encoder can
// write — one accepted NaN would fail the encode and lose the whole
// artifact.  Seeds are real `go test -bench` lines and the noise around
// them.
func FuzzParseLine(f *testing.F) {
	for _, s := range []string{
		"BenchmarkExchange-2   \t     100\t     43122 ns/op\t        37.26 simulated_us\t     165 B/op\t       2 allocs/op",
		"BenchmarkSchedule/ladder/pending=1e+03-2  200000  61.5 ns/op  3.4e+07 events_per_sec  0 B/op  0 allocs/op",
		"BenchmarkHyadeslintFullTree 1 1800 lint_wall_ms",
		"goos: linux", "PASS", "ok  \thyades\t12.3s", "BenchmarkX 1 2 ns/op 3", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, ok := parseLine(line)
		if !ok {
			return
		}
		if !strings.HasPrefix(r.Name, "Benchmark") {
			t.Fatalf("%q: accepted as benchmark %q", line, r.Name)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatalf("%q: accepted result does not encode: %v", line, err)
		}
	})
}
