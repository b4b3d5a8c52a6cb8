package main

import (
	"fmt"
	"math"

	"hyades/internal/bench"
	"hyades/internal/gcm"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/logp"
	"hyades/internal/netmodel"
	"hyades/internal/pci"
	"hyades/internal/perfmodel"
	"hyades/internal/units"
)

// A row is one published quantity: the paper's value, ours, how far
// apart the two may be, and why.
type row struct {
	exp, name   string
	paper, ours float64
	bound       bound
	tol         float64 // relative, for within and pinned
	pin         float64 // pinned: the value of ours the row holds
	why         string
}

type bound int

const (
	within bound = iota // |ours − paper| ≤ tol·|paper|
	above               // ours > paper: the paper's "> x"
	atMost              // ours ≤ paper
	pinned              // |ours − pin| ≤ tol·pin: ours is a model input, not a reproduction
)

// wide is the default tolerance: a row with a wider one, or a pinned
// row, is a known deviation.
const wide = 0.15

func (r row) tolerance() string {
	switch r.bound {
	case above:
		return "> paper"
	case atMost:
		return "<= paper"
	case pinned:
		return fmt.Sprintf("%s ±%.0f%% (pinned)", num(r.pin), 100*r.tol)
	}
	return fmt.Sprintf("±%.0f%%", 100*r.tol)
}

// num prints a value with four significant digits, whole above 1000.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// The timed model runs sample four steps for Figs. 10 and 11 and eight
// for the §5.3 validation, which extrapolates its steady per-step cost
// to the year.
const (
	figSteps      = 4
	validateSteps = 8
)

// ways are the global-sum widths of §4.2, on one and two processors
// per SMP.
var ways = []int{2, 4, 8, 16}

// measured is every run the rows and the extras read, each made once.
type measured struct {
	logp          []logp.Result
	curve         []units.Bandwidth // Fig. 7: blocks of 4 B << i, up to 128 KiB
	nineK, hpvmBW units.Bandwidth
	gsum1, gsum2  []units.Time // N-way and 2xN-way, over ways

	serial     *gcm.Model // one processor: the 128x64 ocean; also Fig. 11's ocean counts
	serialTime units.Time
	atm        *gcm.Model  // Fig. 11's atmosphere counts
	ocean16    *gcm.Result // sixteen processors on eight SMPs; also the century projection

	arctic, fe, ge, hpvm bench.Primitives
	valPrim              bench.Primitives // §5.3's primitives, on the validation run's machine
	val                  *gcm.Result      // §5.3's timed atmosphere
}

// failed carries a run's error out of measure, which returns it.
type failed struct{ err error }

func must[T any](v T, err error) T {
	if err != nil {
		panic(failed{err})
	}
	return v
}

func measure() (m *measured, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(failed)
			if !ok {
				panic(p)
			}
			m, err = nil, f.err
		}
	}()
	m = &measured{logp: must(logp.Fig2())}
	arctic1, arctic2 := bench.HyadesRunner{PPN: 1}, bench.HyadesRunner{PPN: 2}
	for size := 4; size <= 128*1024; size *= 2 {
		m.curve = append(m.curve, must(bench.TransferBandwidth(arctic1, size, 3)))
	}
	m.nineK = must(bench.TransferBandwidth(arctic1, 9*1024, 3))
	for _, n := range ways {
		m.gsum1 = append(m.gsum1, must(bench.Gsum(arctic1, n, 8)))
		m.gsum2 = append(m.gsum2, must(bench.Gsum(arctic2, 2*n, 8)))
	}

	serial := tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}
	m.serial, m.serialTime, err = gcm.RunSerial(gcm.CoarseOceanConfig(serial), figSteps)
	must(m.serial, err)
	atm := gcm.CoarseAtmosphereConfig(serial)
	atm.Forcing = physics.New(physics.Default())
	m.atm, _, err = gcm.RunSerial(atm, figSteps)
	must(m.atm, err)
	m.ocean16 = must(gcm.RunParallel(8, 2, gcm.CoarseOceanConfig(bench.ScalingDecomp()), 1, figSteps))

	m.arctic = must(bench.MeasureHyades())
	m.fe = must(bench.MeasureNet(netmodel.FastEthernet()))
	m.ge = must(bench.MeasureNet(netmodel.GigabitEthernet()))
	m.hpvm = must(bench.MeasureNet(netmodel.MyrinetHPVM()))
	m.hpvmBW = must(bench.TransferBandwidth(bench.NetRunner{Prm: netmodel.MyrinetHPVM()}, 1024, 4))

	m.valPrim = must(bench.MeasureConfig(arctic2, arctic2, bench.ScalingDecomp(), 16, 5, 15))
	val := gcm.CoarseAtmosphereConfig(bench.ScalingDecomp())
	val.Forcing = physics.New(physics.Default())
	m.val = must(gcm.RunParallel(8, 2, val, 2, validateSteps))
	return m, nil
}

// validation returns §5.3 on the simulated machine: eqs. (11)-(13) on
// its measured parameters, and the observed year extrapolated from the
// timed steps.
func (m *measured) validation() (perfmodel.Experiment, units.Time) {
	paper, _ := perfmodel.PaperValidation()
	r := m.val
	nps := float64(r.TotalPS) / float64(r.Steps) / float64(128*64*5)
	nds := float64(r.TotalDS) / (r.MeanNi * float64(r.Steps)) / float64(128*64)
	e := perfmodel.Experiment{
		PS: perfmodel.PS{Nps: nps, Nxyz: 128 * 64 * 5 / 16, Texchxyz: m.valPrim.Texchxyz, FpsMFlops: kernel.FpsMFlops},
		DS: perfmodel.DS{Nds: nds, Nxy: 128 * 64 / 16, Tgsum: m.valPrim.Tgsum, Texchxy: m.valPrim.Texchxy, FdsMFlops: kernel.FdsMFlops},
		Nt: paper.Nt, Ni: r.MeanNi,
	}
	return e, units.Time(int64(r.PerStep()) * int64(paper.Nt))
}

// fig12 evaluates Fig. 12 on each machine's measured primitives.
func (m *measured) fig12() []perfmodel.InterconnectRow {
	row := func(name string, p bench.Primitives) perfmodel.InterconnectRow {
		return perfmodel.Fig12Row(name, p.Tgsum, p.Texchxy, p.Texchxyz)
	}
	return []perfmodel.InterconnectRow{row("F.E.", m.fe), row("G.E.", m.ge), row("Arctic", m.arctic), row("Myrinet/HPVM", m.hpvm)}
}

// rows builds the table in experiment order.  The paper's values that
// a model reads as inputs come from perfmodel; the rest are typed here
// and nowhere else.
func (m *measured) rows() []row {
	var rs []row
	add := func(r row) { rs = append(rs, r) }

	paperLogP := map[int][4]float64{8: {0.4, 2.0, 3.7, 1.3}, 64: {1.7, 8.6, 11.7, 1.4}}
	for _, r := range m.logp {
		for i, v := range []units.Time{r.Os, r.Or, r.HalfRTT, r.L} {
			q := []string{"Os", "Or", "RTT/2", "L"}[i]
			rw := row{exp: "E1", name: fmt.Sprintf("%s %d B (us)", q, r.PayloadBytes), paper: paperLogP[r.PayloadBytes][i], ours: v.Micros(), tol: wide,
				why: "Os and Or are the §2.3 sums of published mmap costs, which the paper rounds to 0.1 us; RTT/2 emerges from the simulated NIU and fabric"}
			if q == "L" && r.PayloadBytes == 8 {
				rw.tol, rw.why = 0.25, "L is RTT/2 − Os − Or: our round trip runs 0.5 us short of the paper's, and it all lands on a 1.3 us difference"
			}
			add(rw)
		}
	}

	// curve[8] and curve[15] are the 1-KiB and 128-KiB blocks; the
	// paper's knee is 90 % of its 110 MB/s peak, at 9 KiB.
	const viWhy = "a VI transfer pays ~9 us of overhead against the paper's 8.6 us, then streams at 88/96 of the 120 MB/s PCI DMA rate"
	add(row{exp: "E2", name: "bandwidth 1 KiB (MB/s)", paper: 56.8, ours: m.curve[8].MBperSec(), tol: 0.05, why: viWhy})
	add(row{exp: "E2", name: "bandwidth 9 KiB (MB/s)", paper: 0.9 * 110, ours: m.nineK.MBperSec(), tol: 0.05, why: viWhy})
	add(row{exp: "E2", name: "bandwidth 128 KiB (MB/s)", paper: 110, ours: m.curve[15].MBperSec(), tol: 0.02, why: viWhy})

	const gsumWhy = "our per-round software dispatch is calibrated a little lighter than the real library's, so the sum runs 10-17 % fast and the gap grows with log2 N"
	for _, g := range []struct {
		form  string
		paper []float64
		ours  []units.Time
	}{{"%d-way (us)", []float64{4.0, 8.3, 12.8, 18.2}, m.gsum1}, {"2x%d-way (us)", []float64{4.8, 9.1, perfmodel.PaperDS().Tgsum.Micros(), 19.5}, m.gsum2}} {
		for i, n := range ways {
			tol := wide
			if n == 16 {
				tol = 0.2
			}
			add(row{exp: "E3", name: fmt.Sprintf(g.form, n), paper: g.paper[i], ours: g.ours[i].Micros(), tol: tol, why: gsumWhy})
		}
	}

	oneProc := float64(m.serial.C.PS+m.serial.C.DS) / m.serialTime.Seconds() / 1e9
	sixteen := m.ocean16.SustainedMFlops() / 1000
	const tileWhy = "each of our 16 workers owns a 32x16 tile (nxy 512) where the paper's two SMP processors shared a 32x32 one, doubling the DS phase's communication per flop"
	add(row{exp: "E4", name: "Hyades 1 processor (GFlop/s)", paper: 0.054, ours: oneProc, tol: 0.05,
		why: "counted flops at the paper's measured kernel rates (Fps 50, Fds 60 MFlop/s)"})
	add(row{exp: "E4", name: "Hyades 16 processors (GFlop/s)", paper: 0.8, ours: sixteen, tol: 0.3, why: tileWhy})
	add(row{exp: "E4", name: "Hyades 16-processor speedup (x)", paper: 15, ours: sixteen / oneProc, tol: 0.3, why: tileWhy})

	cells := float64(128 * 64 * figSteps)
	atmPS, ocPS, ds := perfmodel.PaperAtmospherePS(), perfmodel.PaperOceanPS(), perfmodel.PaperDS()
	paperVal, paperObserved := perfmodel.PaperValidation()
	const npsWhy = "an input to eqs. (4)-(13), measured from this Go kernel's leaner PS phase; the paper's count comes from the production Fortran code"
	const exchWhy = "the same stand-alone benchmarks over the same 32x32 tiles; Arctic's software costs, calibrated from Figs. 2 and 7, run 7-18 % fast"
	add(row{exp: "E5", name: "Nps atmosphere (flops/cell)", paper: atmPS.Nps, ours: float64(m.atm.C.PS) / (cells * 5), bound: pinned, pin: 294.8, tol: 0.01, why: npsWhy})
	add(row{exp: "E5", name: "Nps ocean (flops/cell)", paper: ocPS.Nps, ours: float64(m.serial.C.PS) / (cells * 15), bound: pinned, pin: 282.9, tol: 0.01, why: npsWhy})
	add(row{exp: "E5", name: "Nds (flops/column/iter)", paper: ds.Nds, ours: float64(m.atm.C.DS) / (float64(m.atm.Solver.TotalIters) * 128 * 64), tol: 0.05,
		why: "the CG iteration's per-column work is fixed by the algorithm"})
	add(row{exp: "E5", name: "texchxyz atm (us)", paper: atmPS.Texchxyz.Micros(), ours: m.arctic.Texchxyz.Micros(), tol: wide, why: exchWhy})
	add(row{exp: "E5", name: "texchxyz ocean (us)", paper: ocPS.Texchxyz.Micros(), ours: m.arctic.Ocean3D.Micros(), tol: wide, why: exchWhy})
	add(row{exp: "E5", name: "texchxy (us)", paper: ds.Texchxy.Micros(), ours: m.arctic.Texchxy.Micros(), tol: 0.2, why: exchWhy})
	add(row{exp: "E5", name: "tgsum 2x8-way (us)", paper: ds.Tgsum.Micros(), ours: m.arctic.Tgsum.Micros(), tol: wide, why: exchWhy})
	add(row{exp: "E5", name: "Ni (mean CG iterations)", paper: paperVal.Ni, ours: m.atm.Solver.MeanIters(), bound: pinned, pin: 26, tol: 0.01,
		why: "an input: the SSOR-preconditioned, warm-started solver on a four-step spin-up needs fewer iterations than the paper's production state"})

	ours, observed := m.validation()
	tcomm, tcomp := 30.1, 151.0 // min
	const eqWhy = "eqs. (12)-(13) on the paper's Fig. 11 inputs, which the paper rounds"
	add(row{exp: "E6", name: "Tcomm on Fig. 11 inputs (min)", paper: tcomm, ours: paperVal.Tcomm().Minutes(), tol: 0.03, why: eqWhy})
	add(row{exp: "E6", name: "Tcomp on Fig. 11 inputs (min)", paper: tcomp, ours: paperVal.Tcomp().Minutes(), tol: 0.01, why: eqWhy})
	add(row{exp: "E6", name: "observed year (min)", paper: paperObserved.Minutes(), ours: observed.Minutes(), bound: pinned, pin: 47.34, tol: 0.01,
		why: "follows from two inputs: Nps is 2.6x below the paper's and Ni near 24 against 60"})
	add(row{exp: "E6", name: "model-vs-observed error (%)", paper: 100 * math.Abs(tcomm+tcomp-paperObserved.Minutes()) / paperObserved.Minutes(),
		ours: 100 * math.Abs(ours.Trun().Minutes()-observed.Minutes()) / observed.Minutes(), bound: atMost,
		why: "eqs. (11)-(13) on our measured inputs predict the simulated year at least as closely as the paper's predicted the real one"})

	const ethWhy = "the paper gives three measured costs per Ethernet; our per-message model fits them as closely as three observations allow"
	for i, p := range perfmodel.PaperFig12()[:2] {
		net, tols := []bench.Primitives{m.fe, m.ge}[i], [][3]float64{{0.05, 0.35, wide}, {0.05, 0.2, 0.25}}[i]
		add(row{exp: "E7", name: p.Name + " tgsum (us)", paper: p.Tgsum.Micros(), ours: net.Tgsum.Micros(), tol: tols[0], why: ethWhy})
		add(row{exp: "E7", name: p.Name + " texchxy (us)", paper: p.Texchxy.Micros(), ours: net.Texchxy.Micros(), tol: tols[1], why: ethWhy})
		add(row{exp: "E7", name: p.Name + " texchxyz (us)", paper: p.Texchxyz.Micros(), ours: net.Texchxyz.Micros(), tol: tols[2], why: ethWhy})
	}
	const pfppWhy = "Pfpp is inverse in the exchange and sum costs, so the residuals of the E5 and E7 primitive rows carry over; the paper prints F.E.'s Pfpp,ds of 1.68 as 1.6"
	for i, r := range m.fig12()[:3] {
		paper, tols := [][2]float64{{8.0, 1.6}, {139, 6.2}, {487, 143}}[i], [][2]float64{{wide, 0.55}, {0.2, wide}, {wide, 0.25}}[i]
		add(row{exp: "E7", name: r.Name + " Pfpp,ps (MFlop/s)", paper: paper[0], ours: r.PfppPS, tol: tols[0], why: pfppWhy})
		add(row{exp: "E7", name: r.Name + " Pfpp,ds (MFlop/s)", paper: paper[1], ours: r.PfppDS, tol: tols[1], why: pfppWhy})
	}

	add(row{exp: "E9", name: "16-way HPVM barrier (us)", paper: 50, ours: m.hpvm.Tgsum.Micros(), bound: above, why: "the paper's own bound"})
	add(row{exp: "E9", name: "HPVM barrier over Hyades 16-way sum (x)", paper: 2.5, ours: m.hpvm.Tgsum.Micros() / m.gsum1[3].Micros(), bound: above, why: "the paper's own bound"})
	add(row{exp: "E9", name: "HPVM 1-KiB transfer (MB/s)", paper: 42, ours: m.hpvmBW.MBperSec(), tol: 0.2,
		why: "the Myrinet/HPVM model is fitted to the barrier; its per-message costs leave a 1-KiB transfer slower than the paper measured"})

	// §2.3's estimate for an 8-byte message: two back-to-back register
	// writes to send, two uncached reads to receive.
	const pioWhy = "the overheads are the mmap access costs of §2.1 by construction"
	add(row{exp: "E10", name: fmt.Sprintf("send 8 B = 2 x %.2f us mmap writes (us)", pci.MMapWriteLatency.Micros()), paper: 0.36, ours: m.logp[0].Os.Micros(), tol: 0.01, why: pioWhy})
	add(row{exp: "E10", name: fmt.Sprintf("receive 8 B = 2 x %.2f us mmap reads (us)", pci.MMapReadLatency.Micros()), paper: 1.86, ours: m.logp[0].Or.Micros(), tol: 0.01, why: pioWhy})
	return rs
}
