package kernel_test

import (
	"fmt"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/tile"
)

// benchTiles are the two tiles the PS sweeps run on in the gated
// workloads: the whole 128x64x15 ocean of ocean_serial and the 32x16x5
// atmosphere tile of a 16-rank coupled run, each spun up for three steps
// on the serial endpoint so the Adams-Bashforth history and the flow
// are the model's own.
func benchTiles(b *testing.B, fn func(b *testing.B, m *gcm.Model) (units int, unit string)) {
	for _, cfg := range []gcm.Config{
		gcm.CoarseOceanConfig(tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}),
		gcm.CoarseAtmosphereConfig(tile.Decomp{NXg: 32, NYg: 16, Px: 1, Py: 1, PeriodicX: true}),
	} {
		cfg.Grid.NX, cfg.Grid.NY = cfg.Decomp.NXg, cfg.Decomp.NYg
		b.Run(fmt.Sprintf("%s/%dx%dx%d", cfg.Iso, cfg.Grid.NX, cfg.Grid.NY, cfg.Grid.NZ), func(b *testing.B) {
			m, err := gcm.New(cfg, &comm.Serial{})
			if err != nil {
				b.Fatal(err)
			}
			m.Run(3)
			b.ReportAllocs()
			b.ResetTimer()
			units, unit := fn(b, m)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/"+unit)
		})
	}
}

// benchSweep times one PS sweep per iteration; a unit is one cell of
// the tile interior.
func benchSweep(b *testing.B, sweep func(*grid.Local, *kernel.State, *kernel.Params, *kernel.Counters)) {
	benchTiles(b, func(b *testing.B, m *gcm.Model) (int, string) {
		var c kernel.Counters
		for n := 0; n < b.N; n++ {
			sweep(m.G, m.S, &m.Cfg.Kernel, &c)
		}
		return m.G.NX * m.G.NY * m.G.NZ, "cell"
	})
}

func BenchmarkComputeGTracers(b *testing.B)  { benchSweep(b, kernel.ComputeGTracers) }
func BenchmarkComputeGMomentum(b *testing.B) { benchSweep(b, kernel.ComputeGMomentum) }
func BenchmarkHydrostatic(b *testing.B)      { benchSweep(b, kernel.Hydrostatic) }

// The two Adams-Bashforth steps advance the state they time, by the same
// tendencies every iteration; the masks, and so the branches, do not move.
func BenchmarkStepTracers(b *testing.B)  { benchSweep(b, kernel.StepTracers) }
func BenchmarkStepMomentum(b *testing.B) { benchSweep(b, kernel.StepMomentum) }
func BenchmarkContinuity(b *testing.B) {
	benchSweep(b, func(g *grid.Local, s *kernel.State, _ *kernel.Params, c *kernel.Counters) {
		kernel.Continuity(g, s, c)
	})
}

// BenchmarkConvectiveAdjust times the scan of columns that are already
// stable, which is what a step mostly pays for: on the benchmark's ocean
// and coupled runs under 1 % of the level pairs compared mix.  A unit is
// one column.
func BenchmarkConvectiveAdjust(b *testing.B) {
	benchTiles(b, func(b *testing.B, m *gcm.Model) (int, string) {
		var c kernel.Counters
		for n := 0; n < b.N; n++ {
			kernel.ConvectiveAdjust(m.G, m.S, &m.Cfg.Kernel, &c)
		}
		return m.G.NX * m.G.NY, "col"
	})
}
