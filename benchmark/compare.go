package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare A.json B.json judges run B against base run A: one row per
// (workload, end-to-end metric) with both values, the ratio B/A, the
// bound and a verdict, then every exactly-repeating per-layer metric
// that differs.

func readSuite(path string) (*suiteResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(blob, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// blockSpread is how far a run's slow blocks sit above its median, as
// a share of the median: the run's own resolution for wall time.
func blockSpread(wr *workloadResult) float64 {
	p50 := wr.Extras["run.block_p50_us_per_op"].Value
	p90 := wr.Extras["run.block_p90_us_per_op"].Value
	if p50 <= 0 {
		return 0
	}
	return (p90 - p50) / p50
}

// verdict judges a change of a lower-is-better metric.  change is
// (B-A)/A.  A change that the runs' own spread could produce is
// unresolved rather than unchanged.
func verdict(change, bound, spread float64) string {
	switch {
	case math.Abs(change) <= bound && spread <= bound:
		return "unchanged"
	case math.Abs(change) <= spread:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "unchanged"
}

// exactUnits are the units of metrics that repeat exactly for a seed.
var exactUnits = map[string]bool{"count": true, "B": true, "sim_us": true, "sim_ms": true}

// hostCounts are counts of the Go runtime, which depend on timing.
var hostCounts = map[string]bool{"host.allocs_per_op": true, "host.alloc_bytes_per_op": true, "host.gc_cycles": true}

func isExact(d metricDef) bool { return exactUnits[d.Unit] && !hostCounts[d.Name] }

func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# A (base) = %s: revision %s, seed %d\n", pathA, a.Host.Revision, a.Seed)
	fmt.Fprintf(w, "# B        = %s: revision %s, seed %d\n", pathB, b.Host.Revision, b.Seed)
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "# warning: the two runs differ in seed, scale or length; exact metrics need not agree")
	}
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, name := range a.Order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from B\n", name)
			worse = true
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-13s ops_failed %d -> %d: worse\n", name, wa.Failed, wb.Failed)
			worse = true
		}
		spread := math.Max(blockSpread(wa), blockSpread(wb))
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			if va == 0 {
				continue
			}
			sp := 0.0
			if d.Name == "wall_us_per_op" {
				sp = spread
			}
			v := verdict((vb-va)/va, d.Bound, sp)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %9.4f %5.0f%%  %s\n", name, d.Name, va, vb, vb/va, 100*d.Bound, v)
		}
		if wa.Check != wb.Check {
			fmt.Fprintf(w, "%-13s check record differs: %+v -> %+v\n", name, wa.Check, wb.Check)
			worse = true
		}
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value
			if isExact(d) && va != vb {
				fmt.Fprintf(w, "%-13s %-36s %14.6g -> %-14.6g differs (exact metric)\n", name, d.Name, va, vb)
			}
		}
	}
	return worse, nil
}
