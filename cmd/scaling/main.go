// Command scaling extends the paper's analysis in the direction its
// §5.4 points: if Pfpp is well above the processor's compute rate,
// "straight-forward investments in faster or more processors are a
// viable route" — so how far does the 2.8125-degree ocean actually
// scale on the Arctic fabric?
//
// The study runs the same global problem over 1..1024 workers (strong
// scaling; 32 nodes exercises a three-level fat tree, 1,024 a
// five-level radix-4 tree — the fabric's architectural maximum) and,
// for each machine size, compares the simulated sustained rate against
// the performance model's prediction built from primitives measured at
// that size — eqs. (4)-(11) applied beyond the configurations the
// paper tabulates.
//
// Flags:
//
//	-steps N    timed model steps per point (default 3)
//	-max N      largest machine size to run (default 1024); points
//	            above it are skipped, so -max 32 reproduces the
//	            original E11 table quickly
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hyades/internal/bench"
	"hyades/internal/des"
	"hyades/internal/gcm"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/tile"
	"hyades/internal/perfmodel"
	"hyades/internal/prof"
	"hyades/internal/report"
	"hyades/internal/units"
)

type point struct {
	workers  int
	px, py   int
	nxg, nyg int
}

// The ladder of machine sizes.  The 2.8125-degree (128x64) ocean
// strong-scales to 512 workers — its 4x4-cell tiles there are the
// smallest the halo width admits, so 512 is that problem's hard
// decomposition ceiling, not a fabric limit.  The five-level radix-4
// tree's full 1,024 endpoints therefore run the next-finer
// 1.40625-degree (256x128) ocean, with 256- and 512-worker points on
// the same grid so the panel has its own strong-scaling baseline.
// Speedup and efficiency are always relative to the one-worker run of
// the same grid.
var points = []point{
	{1, 1, 1, 128, 64}, {4, 2, 2, 128, 64}, {8, 4, 2, 128, 64},
	{16, 4, 4, 128, 64}, {32, 8, 4, 128, 64}, {64, 8, 8, 128, 64},
	{128, 16, 8, 128, 64}, {256, 16, 16, 128, 64}, {512, 32, 16, 128, 64},
	{1, 1, 1, 256, 128}, {256, 16, 16, 256, 128}, {512, 32, 16, 256, 128},
	{1024, 32, 32, 256, 128},
}

func main() {
	steps := flag.Int("steps", 3, "timed steps per point")
	max := flag.Int("max", 1024, "largest worker count to run")
	profiles := prof.Flags()
	flag.Parse()
	if *steps < 1 || *max < 1 {
		fmt.Fprintf(flag.CommandLine.Output(), "scaling: -steps %d -max %d: a point needs at least one timed step and one worker\n", *steps, *max)
		flag.Usage()
		os.Exit(2)
	}
	defer profiles.Start()()

	t := report.NewTable("Strong scaling of the ocean isomorph on Arctic (one worker per node)",
		"grid", "workers", "time/step", "sustained MF/s", "speedup", "efficiency", "model MF/s", "comm %", "events/s (host)", "slots (queued)", "resumes (continued)")
	base := map[int]float64{} // serial sustained rate, keyed by grid NXg
	for _, pt := range points {
		if pt.workers > *max {
			continue
		}
		d := tile.Decomp{NXg: pt.nxg, NYg: pt.nyg, Px: pt.px, Py: pt.py, PeriodicX: true}
		cfg := gcm.CoarseOceanConfig(d)
		var sustained float64
		var perStep units.Time
		var commFrac float64
		var ni float64
		var eventsPerSec float64
		var ctr des.Counters
		if pt.workers == 1 {
			m, elapsed, err := gcm.RunSerial(cfg, *steps)
			if err != nil {
				log.Fatal(err)
			}
			sustained = float64(m.C.PS+m.C.DS) / elapsed.Seconds() / 1e6
			perStep = elapsed / units.Time(*steps)
			ni = m.Solver.MeanIters()
		} else {
			wall0 := time.Now()
			res, err := gcm.RunParallel(pt.workers, 1, cfg, 1, *steps)
			if err != nil {
				log.Fatal(err)
			}
			wall := time.Since(wall0).Seconds()
			sustained = res.SustainedMFlops()
			perStep = res.PerStep()
			comm := res.ExchangeTime + res.GsumTime
			commFrac = 100 * float64(comm) / float64(comm+res.ComputeTime)
			ni = res.MeanNi
			eventsPerSec = float64(res.Events) / wall
			ctr = res.Counters
		}
		if pt.workers == 1 {
			base[pt.nxg] = sustained
		}

		model := modelPrediction(pt.workers, d, ni)
		eff := 100 * sustained / (base[pt.nxg] * float64(pt.workers))
		t.Addf("%dx%d|%d|%v|%.0f|%.1fx|%.0f%%|%.0f|%.0f%%|%.2g|%d (%d)|%d (%d)",
			pt.nxg, pt.nyg, pt.workers, perStep, sustained, sustained/base[pt.nxg], eff, model, commFrac, eventsPerSec,
			ctr.SlotsReserved, ctr.SlotsMaterialised, ctr.Resumes, ctr.Continued)
	}
	t.Note = "model: eqs. (4)-(11) with primitives measured at each machine size and " +
		"this implementation's counted Nps/Nds; 32 workers route through a 3-level " +
		"fat tree, 1024 through the 5-level radix-4 maximum; speedup/efficiency are " +
		"relative to the serial run of the same grid (the 128x64 grid's halo caps " +
		"its decomposition at 512 tiles, so the 1,024-endpoint point runs 256x128); " +
		"events/s is host wall-clock event throughput of the whole run; slots: idle-marking events counted (also queued); continued: wakes a step function took without a switch"
	fmt.Print(t)
}

// modelPrediction evaluates the aggregate sustained rate the paper's
// performance model implies for the given machine size.
func modelPrediction(workers int, d tile.Decomp, ni float64) float64 {
	const npsOcean, ndsOcean = 283, 37 // measured from this implementation
	nxy := d.NXg * d.NYg / workers
	nxyz := nxy * 15
	ps := perfmodel.PS{Nps: npsOcean, Nxyz: nxyz, FpsMFlops: kernel.FpsMFlops}
	ds := perfmodel.DS{Nds: ndsOcean, Nxy: nxy, FdsMFlops: kernel.FdsMFlops}
	if workers == 1 {
		ps.Texchxyz, ds.Texchxy, ds.Tgsum = 0, 0, 0
	} else {
		r := bench.HyadesRunner{PPN: 1}
		var err error
		if ds.Tgsum, err = bench.Gsum(r, workers, 4); err != nil {
			log.Fatal(err)
		}
		if ds.Texchxy, err = bench.Exchange2(r, d, 2); err != nil {
			log.Fatal(err)
		}
		if ps.Texchxyz, err = bench.Exchange3(r, d, 15, 3, 1); err != nil {
			log.Fatal(err)
		}
	}
	e := perfmodel.Experiment{PS: ps, DS: ds, Nt: 1, Ni: ni}
	flops := ps.Nps*float64(nxyz) + ni*ds.Nds*float64(nxy)
	return flops * float64(workers) / e.Trun().Seconds() / 1e6
}
