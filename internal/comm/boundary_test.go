package comm

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hyades/internal/cluster"
	"hyades/internal/des"
	"hyades/internal/units"
)

var updateBoundaries = flag.Bool("update", false, "rewrite testdata/interrupt_boundaries.json from the current tree")

// boundaryRow is one run of consecutive interrupt instants, From to To
// in boundaryStride steps, that ended the same way: the call the swept
// rank was in when the interrupt was raised (empty if it never was), the
// virtual time of the raise — Parked when it is the interrupt instant
// itself, the rank having been parked, At otherwise — and Events() at the raise,
// and what stopped the run: the culprit of the watchdog that ended a
// stranded partner, or "" when the run drained.
type boundaryRow struct {
	From, To units.Time
	Call     string
	Parked   bool       `json:",omitempty"`
	At       units.Time `json:",omitempty"`
	Events   uint64
	Culprit  string
}

// boundaryStride is the sweep's step: finer than any charged cost, so
// every blocking boundary of both primitives is hit.
const boundaryStride = 10 * units.Nanosecond

// boundaryMachines are the swept machines and the rank swept on each:
// the ppn-1 exchange and butterfly at two sizes and the mix-mode slave
// path under a watchdog, and without one, where a stranded partner ends
// in the deadlock report; then the mix-mode master (gather, butterfly,
// scatter), the binomial tree's root and a leaf whose exchange is the
// periodic self-wrap, and the intra-node exchange of one SMP.
var boundaryMachines = []struct {
	nodes, ppn, rank int
	watchdog         units.Time
}{
	{2, 1, 1, boundaryWatchdog}, {4, 1, 1, boundaryWatchdog}, {2, 2, 1, boundaryWatchdog}, {2, 1, 1, 0}, {2, 2, 1, 0},
	{2, 2, 0, boundaryWatchdog}, {3, 1, 0, boundaryWatchdog}, {3, 1, 2, boundaryWatchdog}, {1, 2, 1, boundaryWatchdog},
}

const boundaryWatchdog = 100 * units.Microsecond

// boundaryRun runs the boundary workload with rank interrupted at t
// (t < 0: never) under the given watchdog and returns the outcome, plus
// the rank's entry into its second Exchange and exit from its second
// GlobalSum.  Each rank exchanges with the same CPU on the neighbouring
// node, else with the other CPU of its own, else with itself.
func boundaryRun(t *testing.T, nodes, ppn, rank int, watchdog, at units.Time) (row boundaryRow, from, to units.Time) {
	t.Helper()
	cl, err := cluster.New(cluster.DefaultConfig(nodes, ppn))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Eng.SetWatchdog(watchdog)
	h, err := NewHyades(cl, DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	if at >= 0 {
		cl.Eng.ScheduleAt(at, func() { cl.Worker(rank).Proc.Interrupt(errors.New("swept interrupt")) })
	}
	cl.Start(func(w *cluster.Worker) {
		ep := h.Bind(w)
		peer := ep.Rank() ^ ppn
		if peer >= ep.N() {
			peer = ep.Rank() ^ 1
		}
		if peer >= ep.N() {
			peer = ep.Rank()
		}
		buf, layout := make([]byte, 1024), Contiguous(1024, true)
		call := ""
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*des.Interrupt); !ok || ep.Rank() != rank {
					panic(r)
				}
				row.Call, row.At, row.Events = call, ep.Now(), cl.Eng.Events()
			}
		}()
		for i := 0; i < 3; i++ {
			if i == 1 && ep.Rank() == rank {
				from = ep.Now()
			}
			call = "Exchange"
			ep.Exchange(peer, buf, layout)
			call = "GlobalSum"
			ep.GlobalSum(1)
			if i == 1 && ep.Rank() == rank {
				to = ep.Now()
			}
		}
	})
	var trip *des.WatchdogError
	switch err := cl.Run(); {
	case errors.As(err, &trip):
		row.Culprit = trip.Culprit
	case err != nil:
		row.Culprit = err.Error()
	}
	return row, from, to
}

// TestInterruptAtEveryBoundary sweeps an interrupt of one rank across
// one Exchange and one GlobalSum and pins, for every instant, where it
// was raised and how the stranded partner ended.  Every row of the
// fixture was recorded while the primitive it sweeps was process code,
// so it checks that every boundary the process form raised at still
// raises, at the same virtual time and event count.  -short checks
// every seventh instant.
func TestInterruptAtEveryBoundary(t *testing.T) {
	path := filepath.Join("testdata", "interrupt_boundaries.json")
	got := map[string][]boundaryRow{}
	var want map[string][]boundaryRow
	if !*updateBoundaries {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &want); err != nil {
			t.Fatal(err)
		}
	}
	every := units.Time(1)
	if testing.Short() && !*updateBoundaries {
		every = 7
	}
	for _, m := range boundaryMachines {
		name := fmt.Sprintf("%dx%d", m.nodes, m.ppn)
		if m.rank != 1 {
			name += fmt.Sprintf("/rank%d", m.rank)
		}
		if m.watchdog == 0 {
			name += "/nowatchdog"
		}
		_, from, to := boundaryRun(t, m.nodes, m.ppn, m.rank, m.watchdog, -1)
		if to <= from {
			t.Fatalf("%s: no swept window (%v..%v)", name, from, to)
		}
		var rows []boundaryRow
		for at := from; at <= to; at += every * boundaryStride {
			row, _, _ := boundaryRun(t, m.nodes, m.ppn, m.rank, m.watchdog, at)
			row.From, row.To = at, at
			if row.Call != "" && row.At == at {
				row.Parked, row.At = true, 0
			}
			if k := len(rows) - 1; k >= 0 && sameOutcome(rows[k], row) && rows[k].To+every*boundaryStride == at {
				rows[k].To = at
				continue
			}
			rows = append(rows, row)
		}
		got[name] = rows
		if *updateBoundaries {
			continue
		}
		mismatches := 0
		for _, row := range rows {
			for at := row.From; at <= row.To; at += every * boundaryStride {
				w, ok := rowAt(want[name], at)
				if !ok || !sameOutcome(w, row) {
					if mismatches++; mismatches <= 5 {
						t.Errorf("%s: interrupt at %v: got %+v, recorded %+v (found %v)", name, at, row, w, ok)
					}
				}
			}
		}
		if n := len(want[name]); n == 0 || want[name][0].From != from || to-want[name][n-1].To >= boundaryStride {
			t.Errorf("%s: swept window %v..%v, recorded %+v", name, from, to, want[name])
		}
		t.Logf("%s: %d instants in %v..%v, %d distinct outcomes", name, int((to-from)/boundaryStride)+1, from, to, len(rows))
	}
	if *updateBoundaries {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sameOutcome(a, b boundaryRow) bool {
	return a.Call == b.Call && a.Parked == b.Parked && a.At == b.At && a.Events == b.Events && a.Culprit == b.Culprit
}

// rowAt finds the recorded row covering instant at.
func rowAt(rows []boundaryRow, at units.Time) (boundaryRow, bool) {
	for _, r := range rows {
		if r.From <= at && at <= r.To {
			return r, true
		}
	}
	return boundaryRow{}, false
}

// TestUnwoundProgramNamesNoLaterPark: a rank whose program an interrupt
// unwound in a PIO or a VI wait, and which then parks outside any
// program, trips the watchdog as that park, not as the stale wait its
// program was in.
func TestUnwoundProgramNamesNoLaterPark(t *testing.T) {
	const n = 64 << 10
	for _, tc := range []struct {
		on   string // the facility rank 1 is interrupted on
		body func(ep *HyadesEndpoint)
	}{
		// Rank 0 never joins the sum: rank 1 waits on its PIO signal.
		{"node1.piosig", func(ep *HyadesEndpoint) {
			if ep.Rank() == 1 {
				ep.GlobalSum(1)
			} else {
				ep.Busy(units.Millisecond)
			}
		}},
		// Rank 1 accepts first: it waits for rank 0's slab on the VI queue.
		{"niu1.rxVI", func(ep *HyadesEndpoint) { ep.Exchange(1-ep.Rank(), make([]byte, n), Contiguous(n, true)) }},
	} {
		t.Run(tc.on, func(t *testing.T) {
			cl, err := cluster.New(cluster.DefaultConfig(2, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cl.Eng.SetWatchdog(boundaryWatchdog)
			h, err := NewHyades(cl, DefaultHyadesConfig())
			if err != nil {
				t.Fatal(err)
			}
			// Interrupt rank 1 at the first poll that finds it parked on
			// tc.on, polling until the watchdog would have tripped.
			var poll func()
			poll = func() {
				for _, w := range cl.Eng.Waiters() {
					if w.Proc == "rank1" && w.On == tc.on {
						cl.Worker(1).Proc.Interrupt(errors.New("unwind"))
						return
					}
				}
				if cl.Eng.Now() < boundaryWatchdog {
					cl.Eng.Schedule(boundaryStride, poll)
				}
			}
			cl.Eng.Schedule(0, poll)
			cl.Start(func(w *cluster.Worker) {
				ep := h.Bind(w)
				defer func() {
					if _, ok := recover().(*des.Interrupt); ok {
						des.NewMailbox[int](cl.Eng, "after.unwind").Recv(w.Proc)
					}
				}()
				tc.body(ep)
			})
			var trip *des.WatchdogError
			if err := cl.Run(); !errors.As(err, &trip) || trip.Culprit != "rank1 (parked on after.unwind)" {
				t.Fatalf("err = %v, want the watchdog trip of rank1 parked on after.unwind", err)
			}
		})
	}
}
