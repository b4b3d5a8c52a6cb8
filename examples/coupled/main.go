// Coupled: a synchronous ocean-atmosphere simulation in the paper's
// production arrangement — each isomorph occupies half of the cluster,
// and the two exchange boundary conditions (SST one way; wind stress
// and heat flux the other) once per coupling interval.
//
// To keep the example snappy it runs a reduced 64x32 grid over 8
// workers (4 per component) for a few model days; cmd/figure9 runs the
// full 2.8125-degree configuration and writes the Fig. 9 plates.
//
//	go run ./examples/coupled
package main

import (
	"fmt"
	"log"

	"hyades/internal/gcm"
	"hyades/internal/gcm/tile"
	"hyades/internal/report"
)

func main() {
	d := tile.Decomp{NXg: 64, NYg: 32, Px: 2, Py: 2, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 64, 32
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 64, 32
	cfg.CoupleEvery = 53 // ~4 couplings per model day

	const steps = 4 * 213 // about 4 model days
	nWorkers := 2 * d.Tiles()

	_, err := gcm.RunCoupled(nWorkers, 1, cfg, steps, gcm.ParallelOpts{}, nil, func(cp *gcm.Coupled) {
		m := cp.M
		if cp.IsOcean {
			if g := m.Halo.Gather3Level(m.S.Theta, 0); g != nil {
				fmt.Printf("OCEAN after %d steps (%v simulated): SST (north up)\n", steps, m.EP.Now())
				fmt.Print(report.FieldASCII(g, 64))
			}
		} else {
			if g := m.Halo.Gather3Level(m.S.U, 1); g != nil {
				fmt.Printf("\nATMOSPHERE: upper-level zonal wind (north up)\n")
				fmt.Print(report.FieldASCII(g, 64))
				fmt.Printf("\natmosphere rank 0 stats: %d exchanges, %d global sums, comm time %v\n",
					m.EP.Stats().Exchanges, m.EP.Stats().GlobalSums, m.EP.Stats().CommTime())
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
