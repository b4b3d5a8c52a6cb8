package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON pins the public names: the gated
// workloads and the metrics the program emits are exactly those
// BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var ws []*workload
	for _, w := range workloads(scale{}) {
		if w.gated {
			ws = append(ws, w)
		}
	}
	if len(ws) != len(b.Workloads) {
		t.Fatalf("%d gated workloads, BENCHMARK.json has %d", len(ws), len(b.Workloads))
	}
	for i, w := range ws {
		if w.name != b.Workloads[i].Name || w.why != b.Workloads[i].Why {
			t.Errorf("workload %d: %q (%q), BENCHMARK.json has %q (%q)", i, w.name, w.why, b.Workloads[i].Name, b.Workloads[i].Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v, BENCHMARK.json has %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(got[i].Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, got[i].Name)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestWorkloadsTiny runs every workload at tiny scale in both forms of
// the driver contract.  The seed is the expected one, so the run also
// checks the tiny digests, virtual clocks and event counts pinned in
// expected.json, and that traced and untraced execution agree.
func TestWorkloadsTiny(t *testing.T) {
	sc := scale{tiny: true}
	for i, w := range workloads(sc) {
		if testing.Short() && w.opSeconds > 0 && w.nodes > 0 {
			continue // under the race detector the simulated-machine models cost minutes
		}
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rc := runConfig{seed: expectedSeed, seconds: 0.05, traced: traced, sc: sc, extras: true}
				if traced && i == 0 && !testing.Short() {
					rc.probeSeconds = 0.01 // the probes once is enough for a smoke test
				}
				out, err := runWorkload(w, rc)
				if err != nil {
					t.Fatalf("%s (traced %v): %v", w.name, traced, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("%s (traced %v): correct %v, %d of %d ops failed: %v", w.name, traced, out.Correct, out.Failed, out.Attempted, out.Notes)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for _, d := range want {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s (traced %v): metric %s = %+v (present %v)", w.name, traced, d.Name, m, ok)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if out.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, out.Metrics[d.Name].Value)
						}
					}
					return
				}
				sum := out.raw["ledger.kernel_pct"] + out.raw["ledger.driver_pct"] + out.raw["ledger.stack_pct"]
				if math.Abs(sum-100) > 0.1 {
					t.Errorf("%s: ledger shares sum to %v, want 100", w.name, sum)
				}
				if rc.probeSeconds > 0 && out.raw["startx.pio_events_per_msg"] == 0 {
					t.Errorf("%s: the probes did not run", w.name)
				}
			})
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic results.
func TestCompare(t *testing.T) {
	for _, c := range []struct {
		change, bound, spread float64
		want                  string
	}{
		{0.02, 0.10, 0.03, "unchanged"},
		{0.20, 0.10, 0.03, "worse"},
		{-0.20, 0.10, 0.03, "better"},
		{0.20, 0.10, 0.30, "unresolved"},
		{0.02, 0.10, 0.30, "unresolved"},
	} {
		if got := verdict(c.change, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.change, c.bound, c.spread, got, c.want)
		}
	}

	mk := func(wall, events float64) *suiteResult {
		return &suiteResult{Seed: 1, Scale: "full", Seconds: 10, Order: []string{"gsum16"},
			Workloads: map[string]*workloadResult{"gsum16": {
				Correct:  true,
				EndToEnd: metrics{"wall_us_per_op": {wall, "us"}, "peak_rss_mb": {5, "MiB"}, "setup_s": {0.08, "s"}},
				Extras:   metrics{"run.block_p50_us_per_op": {wall * 1.01, "us"}, "run.block_p90_us_per_op": {wall * 1.03, "us"}},
				PerLayer: metrics{"des.events_per_op": {events, "count"}},
			}}}
	}
	dir := t.TempDir()
	write := func(name string, sr *suiteResult) string {
		blob, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.json", mk(160, 896)), write("b.json", mk(208, 900))
	var buf bytes.Buffer
	worse, err := compareFiles(&buf, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !worse || !strings.Contains(got, "worse") || !strings.Contains(got, "1.3000") {
		t.Errorf("a 30%% slowdown was not judged worse:\n%s", got)
	}
	if !strings.Contains(got, "des.events_per_op") || !strings.Contains(got, "differs") {
		t.Errorf("an exact metric that moved was not reported:\n%s", got)
	}
	buf.Reset()
	if worse, err = compareFiles(&buf, a, a); err != nil || worse {
		t.Errorf("a run compared with itself: worse %v, err %v\n%s", worse, err, buf.String())
	}
}
