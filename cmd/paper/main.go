// Command paper regenerates the paper's evaluation on the simulated
// machine, E1–E7, E9 and E10 of EXPERIMENTS.md.  Each published
// quantity is a row — the paper's value, ours, and the tolerance
// TestPaperConformance holds ours to — and each experiment then prints
// what is not a row: the Fig. 7 curve, the §4.2 fit, the Fig. 10 vector
// machines, the §5.3 prediction, the Fig. 12 tables and threshold.  The
// known deviations and their reasons close it.
//
//	go run ./cmd/paper
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"hyades/internal/perfmodel"
	"hyades/internal/report"
	"hyades/internal/units"
	"hyades/internal/vector"
)

// experiments lists, in order, each experiment's heading and what it
// prints after its rows.
var experiments = []struct {
	id, title string
	extra     func(*measured)
}{
	{"E1", "Fig. 2: LogP characteristics of PIO message passing", nil},
	{"E2", "Fig. 7: transfer bandwidth as a function of block size", printCurve},
	{"E3", "§4.2: global-sum latency", printFit},
	{"E4", "Fig. 10: sustained performance of the coarse-resolution ocean isomorph", printVector},
	{"E5", "Fig. 11: performance-model parameters (16 processors, 8 SMPs)", nil},
	{"E6", "§5.3: performance-model validation (one-year atmosphere run)", printValidation},
	{"E7", "Fig. 12: Potential Floating-Point Performance, 16 processors on 8 SMPs", printPfpp},
	{"E9", "§6: Myrinet/HPVM comparison", nil},
	{"E10", "§2.3: I/O cost-model check", nil},
}

func main() {
	m, err := measure()
	if err != nil {
		log.Fatal(err)
	}
	rows := m.rows()
	for _, e := range experiments {
		t := report.NewTable(e.id+"  "+e.title, "quantity", "paper", "ours", "deviation", "tolerance")
		for _, r := range rows {
			if r.exp == e.id {
				t.Add(r.name, num(r.paper), num(r.ours), fmt.Sprintf("%+.0f%%", 100*(r.ours/r.paper-1)), r.tolerance())
			}
		}
		fmt.Print(t)
		if e.extra != nil {
			fmt.Println()
			e.extra(m)
		}
		fmt.Println()
	}
	fmt.Println("Known deviations:")
	for _, r := range rows {
		if r.bound == pinned || r.bound == within && r.tol > wide {
			fmt.Printf("  %s %s: %s against %s — %s\n", r.exp, r.name, num(r.ours), num(r.paper), r.why)
		}
	}
}

func printCurve(m *measured) {
	t := report.NewTable("", "block size", "bandwidth (MB/s)")
	peak := 0.0
	for i, bw := range m.curve {
		t.Addf("%v|%.1f", units.Size(4<<i), bw.MBperSec())
		peak = math.Max(peak, bw.MBperSec())
	}
	fmt.Print(t, "\n")
	for i, bw := range m.curve {
		fmt.Printf("%9v |%s %.1f\n", units.Size(4<<i), strings.Repeat("#", int(bw.MBperSec()/peak*60)), bw.MBperSec())
	}
}

func printFit(m *measured) {
	// Least squares over (log2 N, tgsum) of the N-way sums.
	var n, sx, sy, sxx, sxy float64
	for i, w := range ways {
		x, y := math.Log2(float64(w)), m.gsum1[i].Micros()
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	c := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	fmt.Printf("least-squares fit: tgsum = %.2f * log2(N) %+.2f us\n", c, (sy-c*sx)/n)
	fmt.Println("paper fit:         tgsum = 4.67 * log2(N) -0.95 us")
}

func printVector(m *measured) {
	t := report.NewTable("", "processors", "machine", "sustained (GFlop/s)", "paper (GFlop/s)")
	for _, v := range vector.Fig10Machines() {
		t.Addf("%d|%s|%.2f|%.1f", v.CPUs, v.Name, v.SustainedGFlops(), v.PaperSustainedGFlops)
	}
	t.Note = fmt.Sprintf("vector rows from the roofline model of internal/vector; Hyades 16 processors: mean CG iterations Ni = %.0f", m.ocean16.MeanNi)
	fmt.Print(t)
}

func printValidation(m *measured) {
	paper, observed := perfmodel.PaperValidation()
	ours, simYear := m.validation()
	r := m.val
	commYear := units.Time(int64((r.ExchangeTime+r.GsumTime)/units.Time(r.Steps)/16) * int64(paper.Nt))
	century := units.Time(int64(m.ocean16.PerStep()) * int64(paper.Nt) * 100)
	t := report.NewTable("", "quantity", "Fig. 11 inputs", "this reproduction")
	t.Addf("Nt (steps)|%d|%d", paper.Nt, ours.Nt)
	t.Addf("Ni (mean CG iterations)|%.0f|%.0f", paper.Ni, ours.Ni)
	t.Addf("predicted Tcomm (min)|%.1f|%.1f", paper.Tcomm().Minutes(), ours.Tcomm().Minutes())
	t.Addf("predicted Tcomp (min)|%.1f|%.1f", paper.Tcomp().Minutes(), ours.Tcomp().Minutes())
	t.Addf("predicted total (min)|%.1f|%.1f", paper.Trun().Minutes(), ours.Trun().Minutes())
	t.Addf("observed wall clock (min)|%.0f|%.1f", observed.Minutes(), simYear.Minutes())
	t.Addf("observed comm time (min)|-|%.1f", commYear.Minutes())
	// §6: a century-long coupled run bounded by its slower (ocean)
	// component, projected from the measured ocean step.
	t.Addf("coupled century projection (days)|~14 (paper §6)|%.1f", century.Seconds()/86400)
	t.Note = fmt.Sprintf("reproduction observation from %d simulated steps (%v/step), extrapolated to the year; "+
		"model-vs-observed agreement within %.1f%%",
		r.Steps, r.PerStep(), 100*(ours.Trun().Minutes()-simYear.Minutes())/simYear.Minutes())
	fmt.Print(t)
}

func printPfpp(m *measured) {
	pfpp := func(title string, rows []perfmodel.InterconnectRow) {
		t := report.NewTable(title, "network", "tgsum (us)", "texchxy (us)", "texchxyz (us)",
			"Pfpp,ps (MF/s)", "Pfpp,ds (MF/s)", "Fps", "Fds")
		for _, r := range rows {
			t.Addf("%s|%.1f|%.0f|%.0f|%.1f|%.1f|%.0f|%.0f", r.Name, r.Tgsum.Micros(), r.Texchxy.Micros(),
				r.Texchxyz.Micros(), r.PfppPS, r.PfppDS, r.Fps, r.Fds)
		}
		fmt.Print(t, "\n")
	}
	pfpp("Evaluated from the paper's published primitive costs:", perfmodel.PaperFig12())
	pfpp("Evaluated from primitives measured on this reproduction's machines:", m.fig12())
	thr := perfmodel.DSThreshold(60)
	fmt.Printf("To reach Pfpp,ds = 60 MFlop/s, tgsum + texchxy must not exceed %.0f us (paper: 306 us).\n", thr.Micros())
	fmt.Printf("Gigabit Ethernet sits %.1fx beyond that threshold (paper: nearly a factor of ten).\n",
		(m.ge.Tgsum+m.ge.Texchxy).Seconds()/thr.Seconds())
}
