package hyades

// End-to-end integration tests: full simulated-machine runs of the
// model scenarios the examples and figure tools exercise, with
// cross-cutting assertions (numerics sane, timing accounted, both
// machine families agree on the physics).

import (
	"math"
	"testing"

	"hyades/internal/bench"
	"hyades/internal/cluster"
	"hyades/internal/comm"
	"hyades/internal/gcm"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/netmodel"
	"hyades/internal/units"
)

// TestGyreSpinUpIntegration runs the quickstart scenario: the gyre
// must spin up, stay bounded, remain divergence-free, and account all
// virtual time to compute or communication.
func TestGyreSpinUpIntegration(t *testing.T) {
	d := tile.Decomp{NXg: 32, NYg: 32, Px: 2, Py: 2}
	cfg := gcm.GyreConfig(32, 32, 3, d)
	res, err := gcm.RunParallel(4, 1, cfg, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	var ke, div float64
	cl, err := cluster.New(cluster.DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lib, err := comm.NewHyades(cl, comm.DefaultHyadesConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(func(w *cluster.Worker) {
		m, err := gcm.New(cfg, lib.Bind(w))
		if err != nil {
			t.Error(err)
			return
		}
		m.Run(60)
		k := m.TotalKE()
		dv := m.MaxDivergence()
		if w.Rank == 0 {
			ke, div = k, dv
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ke) || ke <= 0 || ke > 1e18 {
		t.Fatalf("KE = %g", ke)
	}
	if div > 1e-8 {
		t.Fatalf("divergence = %g", div)
	}
	if res.Elapsed <= 0 || res.ComputeTime <= 0 || res.ExchangeTime <= 0 {
		t.Fatalf("timing not accounted: %+v", res)
	}
}

// TestPhysicsAgreesAcrossMachines: the same atmosphere stepped over
// the Arctic machine and over modelled Gigabit Ethernet must produce
// identical physics (only the virtual clock differs) — the machine
// model may never leak into the numerics.
func TestPhysicsAgreesAcrossMachines(t *testing.T) {
	d := tile.Decomp{NXg: 32, NYg: 16, Px: 2, Py: 2, PeriodicX: true}
	mk := func() gcm.Config {
		cfg := gcm.CoarseAtmosphereConfig(d)
		cfg.Grid.NX, cfg.Grid.NY = 32, 16
		cfg.Forcing = physics.New(physics.Default())
		return cfg
	}
	const steps = 6
	arctic, err := gcm.RunParallel(4, 1, mk(), 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := gcm.RunParallelNet(netmodel.GigabitEthernet(), mk(), 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if ge.Elapsed <= arctic.Elapsed {
		t.Errorf("GE (%v) should be slower than Arctic (%v)", ge.Elapsed, arctic.Elapsed)
	}
	worst := 0.0
	for r := range arctic.Models {
		ma, mg := arctic.Models[r], ge.Models[r]
		for k := 0; k < ma.G.NZ; k++ {
			for j := 0; j < ma.G.NY; j++ {
				for i := 0; i < ma.G.NX; i++ {
					if d := math.Abs(ma.S.Theta.At(i, j, k) - mg.S.Theta.At(i, j, k)); d > worst {
						worst = d
					}
					if d := math.Abs(ma.S.U.At(i, j, k) - mg.S.U.At(i, j, k)); d > worst {
						worst = d
					}
				}
			}
		}
	}
	if worst > 1e-12 {
		t.Fatalf("machine model leaked into the numerics: worst field deviation %g", worst)
	}
}

// TestCoupledFigure9Integration runs a short figure-9-style coupled
// simulation and checks the gathered plates are physically plausible.
func TestCoupledFigure9Integration(t *testing.T) {
	d := tile.Decomp{NXg: 32, NYg: 16, Px: 2, Py: 1, PeriodicX: true}
	cfg := gcm.DefaultCoupledConfig(d)
	cfg.Ocean.Grid.NX, cfg.Ocean.Grid.NY = 32, 16
	cfg.Atmos.Grid.NX, cfg.Atmos.Grid.NY = 32, 16
	cfg.CoupleEvery = 20
	var sstMean float64
	var windRange float64
	_, err := gcm.RunCoupled(2*d.Tiles(), 1, cfg, 60, gcm.ParallelOpts{}, nil, func(cp *gcm.Coupled) {
		m := cp.M
		if cp.IsOcean {
			if g := m.Halo.Gather3Level(m.S.Theta, 0); g != nil {
				sum, n := 0.0, 0
				for j := 0; j < g.NY; j++ {
					for i := 0; i < g.NX; i++ {
						sum += g.At(i, j)
						n++
					}
				}
				sstMean = sum / float64(n)
			}
		} else {
			if g := m.Halo.Gather3Level(m.S.U, 1); g != nil {
				lo, hi := math.Inf(1), math.Inf(-1)
				for j := 0; j < g.NY; j++ {
					for i := 0; i < g.NX; i++ {
						lo = math.Min(lo, g.At(i, j))
						hi = math.Max(hi, g.At(i, j))
					}
				}
				windRange = hi - lo
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sstMean < -5 || sstMean > 40 || math.IsNaN(sstMean) {
		t.Fatalf("mean SST = %g C", sstMean)
	}
	if math.IsNaN(windRange) || windRange < 0 {
		t.Fatalf("wind range = %g", windRange)
	}
}

// TestScalingMonotonic: more workers must not make the simulated
// machine slower per step on the production problem.
func TestScalingMonotonic(t *testing.T) {
	per := func(workers, px, py int) units.Time {
		d := tile.Decomp{NXg: 128, NYg: 64, Px: px, Py: py, PeriodicX: true}
		cfg := gcm.CoarseOceanConfig(d)
		res, err := gcm.RunParallel(workers, 1, cfg, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerStep()
	}
	t4 := per(4, 2, 2)
	t16 := per(16, 4, 4)
	if t16 >= t4 {
		t.Fatalf("no strong scaling: %v at 4 workers, %v at 16", t4, t16)
	}
	if ratio := float64(t4) / float64(t16); ratio < 2 {
		t.Fatalf("scaling 4->16 only %.1fx", ratio)
	}
}

// TestPrimitiveBenchmarksAgainstPerfModel closes the loop of §5.2: a
// short timed run's communication share must be within a factor of the
// share the analytic model predicts from measured primitives.
func TestPrimitiveBenchmarksAgainstPerfModel(t *testing.T) {
	cfg := gcm.CoarseOceanConfig(bench.ScalingDecomp())
	res, err := gcm.RunParallel(16, 1, cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	measuredShare := float64(res.ExchangeTime+res.GsumTime) /
		float64(res.ExchangeTime+res.GsumTime+res.ComputeTime)
	if measuredShare < 0.05 || measuredShare > 0.8 {
		t.Fatalf("communication share %.2f outside plausible band", measuredShare)
	}
}

// TestWholeStackDeterminism: two identical parallel runs must agree
// bit-for-bit in both physics and virtual time — the property that
// makes every number in EXPERIMENTS.md reproducible.
func TestWholeStackDeterminism(t *testing.T) {
	run := func() (*gcm.Result, float64) {
		d := tile.Decomp{NXg: 32, NYg: 16, Px: 2, Py: 2, PeriodicX: true}
		cfg := gcm.CoarseAtmosphereConfig(d)
		cfg.Grid.NX, cfg.Grid.NY = 32, 16
		cfg.Forcing = physics.New(physics.Default())
		res, err := gcm.RunParallel(4, 1, cfg, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, m := range res.Models {
			for k := 0; k < m.G.NZ; k++ {
				for j := 0; j < m.G.NY; j++ {
					for i := 0; i < m.G.NX; i++ {
						sum += m.S.U.At(i, j, k) * float64(1+i+j*31+k*977)
					}
				}
			}
		}
		return res, sum
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("virtual time differs: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	if s1 != s2 {
		t.Fatalf("physics differs: %g vs %g", s1, s2)
	}
	if r1.TotalPS != r2.TotalPS || r1.TotalDS != r2.TotalDS {
		t.Fatal("flop counts differ")
	}
}
