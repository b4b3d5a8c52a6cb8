// Command figure9 regenerates the science plates of the paper's
// Fig. 9: the coupled ocean-atmosphere simulation's ocean currents at
// ~25 m depth and the atmospheric zonal velocity in the upper
// troposphere.  Output is written as CSV and PGM files plus an ASCII
// quick-look; longer runs (-days) give a better-developed circulation.
//
// Long climate integrations run through -years (360-day model years)
// with periodic checkpoint plates: -checkpoint-every Y writes one
// plate file per rank under <out>/plates every Y model years, and
// -resume restarts from the newest complete plate set, reaching a
// state digest bit-identical to the uninterrupted run.  The final
// line reports model-years-per-wall-hour, the metric a real science
// run is provisioned by.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"math"

	"hyades/internal/gcm"
	"hyades/internal/gcm/diag"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/tile"
	"hyades/internal/plates"
	"hyades/internal/prof"
	"hyades/internal/report"
)

// yearSeconds is one 360-day model year, the climate-model calendar
// convention (12 equal 30-day months).
const yearSeconds = 360 * 86400

func main() {
	days := flag.Float64("days", 10, "model days to integrate")
	years := flag.Float64("years", 0, "model years to integrate (360-day years; overrides -days)")
	ckEvery := flag.Float64("checkpoint-every", 0, "model years between checkpoint plates (0 = none)")
	resume := flag.Bool("resume", false, "resume from the newest complete plate set in <out>/plates")
	nx := flag.Int("nx", 128, "global grid points in x")
	ny := flag.Int("ny", 64, "global grid points in y")
	outDir := flag.String("out", "fig9_out", "output directory")
	profiles := prof.Flags()
	flag.Parse()
	defer profiles.Start()()

	d := tile.Decomp{NXg: *nx, NYg: *ny, Px: 4, Py: 2, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	var steps int
	if *years > 0 {
		steps = int(*years * yearSeconds / cfg.Ocean.Kernel.Dt)
	} else {
		steps = int(*days * 86400 / cfg.Ocean.Kernel.Dt)
	}
	chunk := 0
	if *ckEvery > 0 {
		chunk = int(*ckEvery * yearSeconds / cfg.Ocean.Kernel.Dt)
		if chunk < 1 {
			chunk = 1
		}
	}
	nWorkers := 2 * d.Tiles()

	// Checkpoint plates are the on-disk image of the runner's committed
	// checkpoints; -resume seeds the run with the newest complete set.
	var dir *plates.Dir
	if chunk > 0 || *resume {
		dir = &plates.Dir{Path: filepath.Join(*outDir, "plates")}
	}
	startStep := 0
	if *resume {
		var err error
		if startStep, err = dir.Load(nWorkers); err != nil {
			log.Fatalf("figure9: -resume: %v", err)
		}
	}

	fields := map[string]*field.F2{}
	var oceanDiag *diag.State
	gather := func(cp *gcm.Coupled) {
		// Gather the figure fields on each component's root.
		m := cp.M
		if cp.IsOcean {
			if g := m.Halo.Gather3Level(m.S.U, 1); g != nil {
				fields["ocean_u_25m"] = g
			}
			if g := m.Halo.Gather3Level(m.S.V, 1); g != nil {
				fields["ocean_v_25m"] = g
			}
			if g := m.Halo.Gather3Level(m.S.Theta, 0); g != nil {
				fields["ocean_sst"] = g
			}
			// Gather the full 3-D circulation for diagnostics on the
			// ocean root.
			var us, vs, ths []*field.F2
			for k := 0; k < m.G.NZ; k++ {
				us = append(us, m.Halo.Gather3Level(m.S.U, k))
				vs = append(vs, m.Halo.Gather3Level(m.S.V, k))
				ths = append(ths, m.Halo.Gather3Level(m.S.Theta, k))
			}
			if us[0] != nil {
				gg, err := grid.NewLocal(m.Cfg.Grid, 0, 0, m.Cfg.Grid.NX, m.Cfg.Grid.NY, 1)
				if err == nil {
					oceanDiag = &diag.State{G: gg, U: us, V: vs, Theta: ths}
				}
			}
		} else {
			if g := m.Halo.Gather3Level(m.S.U, 1); g != nil {
				fields["atmos_u_250mb"] = g
			}
			if g := m.Halo.Gather3Level(m.S.Theta, m.G.NZ-1); g != nil {
				fields["atmos_theta_surface"] = g
			}
		}
	}
	wall0 := time.Now()
	res, err := gcm.RunCoupled(8, 2, cfg, steps, gcm.ParallelOpts{CheckpointEvery: chunk}, dir, gather)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(wall0)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, f := range fields {
		if err := os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(report.FieldCSV(f)), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".pgm"), []byte(report.FieldPGM(f)), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	modelDays := float64(steps) * cfg.Ocean.Kernel.Dt / 86400
	fmt.Printf("Figure 9 after %.1f coupled model days (%d steps); files in %s/\n", modelDays, steps, *outDir)
	integratedYears := float64(steps-startStep) * cfg.Ocean.Kernel.Dt / yearSeconds
	fmt.Printf("integrated %.4f model years in %v: %.2f model years per wall hour\n",
		integratedYears, wall.Round(time.Millisecond), integratedYears/wall.Hours())
	h := sha256.New()
	for r, cp := range res.Coupled {
		if err := cp.Checkpoint(h); err != nil {
			log.Fatalf("worker %d: digest: %v", r, err)
		}
	}
	fmt.Printf("state digest: %x\n\n", h.Sum(nil))
	if f, ok := fields["atmos_u_250mb"]; ok {
		fmt.Println("ATMOSPHERE: zonal velocity, upper troposphere (north up):")
		fmt.Print(report.FieldASCII(f, 96))
	}
	if f, ok := fields["ocean_u_25m"]; ok {
		fmt.Println("\nOCEAN: zonal current at ~25 m (north up; '#' = land):")
		maskLand(cfg.Ocean.Grid.DepthFrac, f)
		fmt.Print(report.FieldASCII(f, 96))
	}
	if oceanDiag != nil && oceanDiag.Validate() == nil {
		psi := oceanDiag.Overturning()
		maxPsi, minPsi := 0.0, 0.0
		for k := 0; k < psi.NY; k++ {
			for j := 0; j < psi.NX; j++ {
				v := psi.At(j, k)
				if v > maxPsi {
					maxPsi = v
				}
				if v < minPsi {
					minPsi = v
				}
			}
		}
		ht := oceanDiag.HeatTransport()
		peak := 0.0
		for _, v := range ht {
			if math.Abs(v) > math.Abs(peak) {
				peak = v
			}
		}
		bt := oceanDiag.BarotropicStreamfunction()
		os.WriteFile(filepath.Join(*outDir, "ocean_barotropic_psi.csv"), []byte(report.FieldCSV(bt)), 0o644)
		fmt.Printf("\nOCEAN diagnostics: overturning psi in [%.1f, %.1f] Sv; peak meridional heat transport %.3f PW\n",
			minPsi, maxPsi, peak)
	}
}

// maskLand marks the land columns of the ocean's depth map as NaN for
// the quick-look renderer.
func maskLand(depth func(x, y float64) float64, f *field.F2) {
	if depth == nil {
		return
	}
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			x := (float64(i) + 0.5) / float64(f.NX)
			y := (float64(j) + 0.5) / float64(f.NY)
			if depth(x, y) == 0 {
				f.Set(i, j, math.NaN())
			}
		}
	}
}
