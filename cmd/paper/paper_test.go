package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPaperConformance holds every published quantity of the table to
// its tolerance.  A row out of tolerance fails naming the row, our
// value, the paper's and the tolerance; a row without a reason fails
// too, so a deviation passes only where the table says why.
//
// Under -short it is skipped: the race detector makes its two seconds
// of simulation about forty, and ci.sh runs it without the detector.
func TestPaperConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("about 40 s under the race detector; ci.sh runs it without")
	}
	m, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	rows := m.rows()
	seen := map[string]bool{}
	perExp := map[string]int{}
	for _, r := range rows {
		if err := r.check(); err != nil {
			t.Error(err)
		}
		if r.why == "" {
			t.Errorf("%s %s: no reason for its tolerance", r.exp, r.name)
		}
		if seen[r.metric()] {
			t.Errorf("%s: two rows share the name", r.metric())
		}
		seen[r.metric()] = true
		perExp[r.exp]++
	}
	for _, e := range experiments {
		if perExp[e.id] == 0 {
			t.Errorf("%s has no row", e.id)
		}
	}
	if len(perExp) != len(experiments) {
		t.Errorf("rows name %d experiments, the output prints %d", len(perExp), len(experiments))
	}
}

// BenchmarkPaper regenerates the table and reports each row's value as
// a metric.
func BenchmarkPaper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := measure()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range m.rows() {
			b.ReportMetric(r.ours, r.metric())
		}
	}
}

// check reports, naming the row, whether ours is outside its tolerance.
func (r row) check() error {
	var ok bool
	switch r.bound {
	case above:
		ok = r.ours > r.paper
	case atMost:
		ok = r.ours <= r.paper
	case pinned:
		ok = math.Abs(r.ours-r.pin) <= r.tol*r.pin
	default:
		ok = math.Abs(r.ours-r.paper) <= r.tol*math.Abs(r.paper)
	}
	if ok {
		return nil
	}
	return fmt.Errorf("%s %s: ours %s, paper %s, tolerance %s", r.exp, r.name, num(r.ours), num(r.paper), r.tolerance())
}

// metric names the row as a benchmark metric.
func (r row) metric() string {
	return strings.NewReplacer(" ", "_", "(", "", ")", "", ",", "", "/", "_", "%", "pct").Replace(r.exp + " " + r.name)
}
