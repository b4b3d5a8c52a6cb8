// Command benchjson converts `go test -bench` text output into a JSON
// document suitable for committing as a benchmark artifact.
//
// It reads the benchmark output on stdin and writes JSON to stdout:
//
//	go test -bench . -benchmem | go run ./cmd/benchjson > BENCH.json
//
// Each benchmark line becomes an entry with its iteration count and a
// metrics map keyed by unit (ns/op, B/op, allocs/op, plus any custom
// units reported via b.ReportMetric, e.g. simulated_us).  The document
// also records the host's core count and GOMAXPROCS so that readers can
// judge whether parallel-speedup numbers are meaningful on the machine
// that produced them.
//
// With -compare it diffs two committed artifacts instead:
//
//	go run ./cmd/benchjson -compare BENCH_pr8.json BENCH_pr9.json
//
// printing per-benchmark deltas for ns/op, allocs/op and events/sec
// over the benchmarks the two documents share (GOMAXPROCS name
// suffixes are normalized away).  The exit status is the regression
// gate: nonzero iff any shared benchmark's allocs/op grew by more
// than 10% — wall-clock deltas never gate, since they are host-noise
// on shared CI machines while allocation counts are deterministic.
// An ns/op growth past 25% is flagged SLOW in the table as a soft
// warning, visible but never failing.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// document is the full artifact written to stdout.
type document struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	HostCores  int      `json:"host_cores"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Note       string   `json:"note,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compare(os.Args[2], os.Args[3]))
	}
	doc := document{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		HostCores:  runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: []result{},
	}
	if len(os.Args) > 1 {
		doc.Note = strings.Join(os.Args[1:], " ")
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// compareMetrics are the units -compare reports, in print order.
// events_per_sec is the custom throughput metric BenchmarkSchedule and
// cmd/scaling emit; higher is better, so its delta sign reads opposite
// to the cost metrics.
var compareMetrics = []string{"ns/op", "allocs/op", "events_per_sec"}

// allocRegressionLimit is the fractional allocs/op growth -compare
// tolerates before failing.  Allocation counts are deterministic, so
// anything past the slack is a real regression, not noise; the slack
// exists only for benchmarks whose per-op amortization of one-time
// setup shifts with the iteration count.
const allocRegressionLimit = 0.10

// nsRegressionLimit is the fractional ns/op growth past which -compare
// prints a SLOW warning.  Wall clock is host noise on shared CI
// machines, so the warning never fails the run — it exists to make a
// large slowdown impossible to merge unread, while leaving the hard
// gate to the deterministic allocation counts.
const nsRegressionLimit = 0.25

// compare diffs two benchmark artifacts and returns the process exit
// code: 1 if any shared benchmark's allocs/op regressed beyond
// allocRegressionLimit, else 0.
func compare(oldPath, newPath string) int {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	old := map[string]result{}
	for _, r := range oldDoc.Benchmarks {
		old[normalizeName(r.Name)] = r
	}

	fmt.Printf("%-44s %-14s %14s %14s %9s\n", "benchmark", "metric", oldPath, newPath, "delta")
	regressions := 0
	slowdowns := 0
	shared := 0
	for _, nr := range newDoc.Benchmarks {
		or, ok := old[normalizeName(nr.Name)]
		if !ok {
			continue
		}
		shared++
		for _, m := range compareMetrics {
			nv, nok := nr.Metrics[m]
			ov, ook := or.Metrics[m]
			if !nok || !ook {
				continue
			}
			delta := "n/a"
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
			}
			flag := ""
			if m == "allocs/op" && allocRegressed(ov, nv) {
				flag = "  REGRESSION"
				regressions++
			}
			if m == "ns/op" && ov > 0 && (nv-ov)/ov > nsRegressionLimit {
				flag = "  SLOW"
				slowdowns++
			}
			fmt.Printf("%-44s %-14s %14.4g %14.4g %9s%s\n", normalizeName(nr.Name), m, ov, nv, delta, flag)
		}
	}
	fmt.Printf("%d shared benchmarks compared; %d allocs/op regression(s) over the %.0f%% gate; %d ns/op slowdown(s) over the %.0f%% warning line (non-failing)\n",
		shared, regressions, 100*allocRegressionLimit, slowdowns, 100*nsRegressionLimit)
	if regressions > 0 {
		return 1
	}
	return 0
}

// allocRegressed reports whether an allocs/op move from ov to nv
// trips the gate.  Growth from zero is always a regression — a
// zero-alloc path is a ratchet, not a baseline with slack.
func allocRegressed(ov, nv float64) bool {
	if nv <= ov {
		return false
	}
	if ov == 0 {
		return true
	}
	return (nv-ov)/ov > allocRegressionLimit
}

// readDoc loads one committed artifact.
func readDoc(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// normalizeName strips the -N GOMAXPROCS suffix go test appends, so
// artifacts from hosts with different core counts still line up.
func normalizeName(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseLine parses one `go test -bench` result line of the form
//
//	BenchmarkName-8   100   43122 ns/op   37.26 simulated_us   165 allocs/op
//
// Lines that are not benchmark results (headers, PASS, ok ...) are
// rejected with ok=false.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates value / unit.  A NaN or infinite value
	// (a metric divided by a zero elapsed time) is dropped: JSON cannot
	// carry it, and one would fail the whole artifact's encode.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			r.Metrics[fields[i+1]] = v
		}
	}
	return r, true
}
