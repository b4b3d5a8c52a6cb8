package gcm

import (
	"math"
	"testing"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
	"hyades/internal/units"
)

// smallGyre returns a quick test configuration.
func smallGyre(px, py int) Config {
	d := tile.Decomp{NXg: 16, NYg: 16, Px: px, Py: py}
	cfg := GyreConfig(16, 16, 3, d)
	return cfg
}

func TestSerialGyreRunsStable(t *testing.T) {
	m, _, err := RunSerial(smallGyre(1, 1), 50)
	if err != nil {
		t.Fatal(err)
	}
	ke := m.TotalKE()
	if math.IsNaN(ke) || math.IsInf(ke, 0) {
		t.Fatalf("KE = %v", ke)
	}
	if ke <= 0 {
		t.Fatalf("no circulation spun up: KE = %g", ke)
	}
	if ke > 1e16 {
		t.Fatalf("KE = %g suggests numerical blow-up", ke)
	}
}

func TestDivergenceFreeAfterProjection(t *testing.T) {
	m, _, err := RunSerial(smallGyre(1, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	// The depth-integrated flow must be non-divergent to solver
	// tolerance after every step's projection.
	div := m.MaxDivergence()
	if div > 1e-10 {
		t.Fatalf("rms depth-integrated divergence %g (want < 1e-10)", div)
	}
}

func TestTracerConservation(t *testing.T) {
	// Closed box, no forcing, no restoring: the volume-integrated
	// tracer must be conserved by the flux-form advection.
	cfg := smallGyre(1, 1)
	cfg.Forcing = nil
	cfg.Init = func(g *grid.Local, s *kernel.State) {
		for k := 0; k < g.NZ; k++ {
			for j := -g.H; j < g.NY+g.H; j++ {
				for i := -g.H; i < g.NX+g.H; i++ {
					s.Theta.Set(i, j, k, 10+math.Sin(float64(i))*math.Cos(float64(j)))
					s.Salt.Set(i, j, k, 35)
					// A rotating initial flow to stir the tracer.
					s.U.Set(i, j, k, 0.05*math.Sin(float64(j)*0.7))
					s.V.Set(i, j, k, 0.05*math.Cos(float64(i)*0.7))
				}
			}
		}
	}
	ep := &comm.Serial{}
	m, err := New(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	before := m.MeanTracer()
	m.Run(30)
	after := m.MeanTracer()
	if rel := math.Abs(after-before) / math.Abs(before); rel > 1e-12 {
		t.Fatalf("tracer mean drifted by %g relative (%.15g -> %.15g)", rel, before, after)
	}
}

func TestSerialVsParallelEquivalence(t *testing.T) {
	// The same configuration must produce (nearly) identical fields on
	// one tile and on a 2x2 decomposition: this exercises halo
	// exchange, overcomputation margins and the distributed solver all
	// at once.  Exact bitwise equality is not expected because the
	// butterfly global sum associates additions differently.
	const steps = 5
	serialCfg := smallGyre(1, 1)
	mSerial, _, err := RunSerial(serialCfg, steps)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := smallGyre(2, 2)
	res, err := RunParallel(4, 1, parCfg, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, m := range res.Models {
		i0, j0 := parCfg.Decomp.Origin(m.EP.Rank())
		for k := 0; k < 3; k++ {
			for j := 0; j < m.G.NY; j++ {
				for i := 0; i < m.G.NX; i++ {
					for _, pair := range [][2]float64{
						{m.S.Theta.At(i, j, k), mSerial.S.Theta.At(i0+i, j0+j, k)},
						{m.S.U.At(i, j, k), mSerial.S.U.At(i0+i, j0+j, k)},
						{m.S.V.At(i, j, k), mSerial.S.V.At(i0+i, j0+j, k)},
					} {
						diff := math.Abs(pair[0] - pair[1])
						scale := math.Max(math.Abs(pair[1]), 1e-3)
						if rel := diff / scale; rel > worst {
							worst = rel
						}
					}
				}
			}
		}
	}
	t.Logf("worst relative serial-vs-parallel deviation after %d steps: %g", steps, worst)
	if worst > 1e-9 {
		t.Fatalf("parallel run diverges from serial: worst relative deviation %g", worst)
	}
}

func TestSolverManufacturedSolution(t *testing.T) {
	// Apply the operator to a known field, then solve back.
	cfg := smallGyre(1, 1)
	ep := &comm.Serial{}
	m, err := New(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	want := field.NewF2(16, 16, 1)
	mean := 0.0
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			want.Set(i, j, math.Sin(float64(i)*0.5)*math.Cos(float64(j)*0.4))
			mean += want.At(i, j)
		}
	}
	// Remove the null-space component (constant) for comparability.
	mean /= 256
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			want.Add(i, j, -mean)
		}
	}
	m.Halo.Update2(want, 1)
	b := field.NewF2(16, 16, 1)
	var c kernel.Counters
	m.Solver.Apply(want, b, &c)
	got := field.NewF2(16, 16, 1)
	iters := m.Solver.Solve(got, b, &c)
	if iters == 0 {
		t.Fatal("solver did no iterations")
	}
	gotMean := 0.0
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			gotMean += got.At(i, j)
		}
	}
	gotMean /= 256
	worst := 0.0
	scale := 0.0
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			diff := math.Abs(got.At(i, j) - gotMean - want.At(i, j))
			if diff > worst {
				worst = diff
			}
			if a := math.Abs(want.At(i, j)); a > scale {
				scale = a
			}
		}
	}
	if worst > 1e-5*scale {
		t.Fatalf("CG solution error %g (scale %g, %d iters)", worst, scale, iters)
	}
}

func TestAtmosphereWithPhysicsStable(t *testing.T) {
	d := tile.Decomp{NXg: 32, NYg: 16, Px: 1, Py: 1, PeriodicX: true}
	cfg := CoarseAtmosphereConfig(d)
	cfg.Grid.NX, cfg.Grid.NY = 32, 16
	cfg.Forcing = physics.New(physics.Default())
	m, _, err := RunSerial(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	ke := m.TotalKE()
	if math.IsNaN(ke) || ke <= 0 || ke > 1e18 {
		t.Fatalf("atmosphere KE = %g", ke)
	}
	// Physics must have produced meridional temperature structure: the
	// equator warmer than the pole at the surface level.
	k := m.G.NZ - 1
	eq := m.S.Theta.At(5, 8, k)
	pole := m.S.Theta.At(5, 0, k)
	if eq <= pole {
		t.Fatalf("no equator-pole contrast: theta(eq)=%g theta(pole)=%g", eq, pole)
	}
}

func TestCoarseOceanBuilds(t *testing.T) {
	d := tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true}
	cfg := CoarseOceanConfig(d)
	cfg.Decomp = tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}
	ep := &comm.Serial{}
	m, err := New(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	wet := m.G.OceanPoints()
	total := 128 * 64 * 15
	if wet >= total || wet < total/2 {
		t.Fatalf("continental geometry looks wrong: %d of %d cells wet", wet, total)
	}
	m.Run(3)
	if ke := m.TotalKE(); math.IsNaN(ke) {
		t.Fatal("NaN after 3 steps on the production grid")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallGyre(1, 1)
	cfg.Decomp.Px = 3 // 16 not divisible by 3
	if _, err := New(cfg, &comm.Serial{}); err == nil {
		t.Fatal("invalid decomposition accepted")
	}
	cfg = smallGyre(1, 1)
	cfg.Kernel.Dt = -1
	if _, err := New(cfg, &comm.Serial{}); err == nil {
		t.Fatal("negative Dt accepted")
	}
	cfg = smallGyre(1, 1)
	cfg.Grid.NX = 999 // decomp mismatch
	if _, err := New(cfg, &comm.Serial{}); err == nil {
		t.Fatal("grid/decomp mismatch accepted")
	}
}

func TestFlopCountersAdvance(t *testing.T) {
	cfg := smallGyre(1, 1)
	m, _, err := RunSerial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.C.PS == 0 || m.C.DS == 0 {
		t.Fatalf("flop counters did not advance: PS=%d DS=%d", m.C.PS, m.C.DS)
	}
	perCell := float64(m.C.PS) / float64(2*16*16*3)
	t.Logf("measured Nps ~ %.0f flops/cell/step (paper: 781 atm, 751 ocean)", perCell)
	if perCell < 50 {
		t.Fatalf("implausibly low Nps: %g", perCell)
	}
}

// TestEveryFlopIsChargedOnce: the virtual compute time of a run is the
// time of the flops it counted at the paper's rates, whether a sweep ran
// as an up-front-charged Exec phase (the *Ops counts) or in the rank's
// process (the forcing packages and convective adjustment, charged what
// they counted after they ran).  A flop charged twice, or never, moves
// the sum by at least its own time; each conversion to picoseconds may
// round, so one picosecond per charge is allowed.
func TestEveryFlopIsChargedOnce(t *testing.T) {
	// charges bounds the conversions a model made: per step, ten in the
	// PS/DS sequence and two opening the solve; five per CG iteration.
	charges := func(m *Model) int64 { return 12*int64(m.Steps) + 5*m.Solver.TotalIters }
	check := func(name string, charged units.Time, ps, ds, n int64) {
		t.Helper()
		want := kernel.PSTime(ps) + kernel.DSTime(ds)
		if d := charged - want; d < -units.Time(n) || d > units.Time(n) || want == 0 {
			t.Errorf("%s: charged %v, counted flops PS=%d DS=%d take %v (%d ps apart, %d charges)",
				name, charged, ps, ds, want, int64(d), n)
		}
	}

	m, elapsed, err := RunSerial(smallGyre(1, 1), 6) // WindStress
	if err != nil {
		t.Fatal(err)
	}
	check("serial gyre", elapsed, m.C.PS, m.C.DS, charges(m))

	d := tile.Decomp{NXg: 32, NYg: 16, Px: 1, Py: 1, PeriodicX: true}
	cfg := CoarseAtmosphereConfig(d)
	cfg.Grid.NX, cfg.Grid.NY = 32, 16
	cfg.Forcing = physics.New(physics.Default()) // physics, ConvectiveAdjust
	m, elapsed, err = RunSerial(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("serial atmosphere", elapsed, m.C.PS, m.C.DS, charges(m))

	cc := miniCoupled(2, 1) // CoupledOceanForcing
	res, err := RunCoupled(2*cc.Ocean.Decomp.Tiles(), 1, cc, 6, ParallelOpts{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, m := range res.Models {
		n += charges(m)
	}
	check("coupled 2x1", res.ComputeTime, res.TotalPS, res.TotalDS, n)
	if f := res.TotalFlops(); f != res.TotalPS+res.TotalDS {
		t.Errorf("TotalFlops = %d, want PS+DS = %d", f, res.TotalPS+res.TotalDS)
	}
	if got, want := res.SustainedMFlops(), float64(res.TotalFlops())/res.Elapsed.Seconds()/1e6; got != want || got <= 0 {
		t.Errorf("SustainedMFlops = %g, want %g", got, want)
	}
}

func TestTimedRunChargesVirtualTime(t *testing.T) {
	cfg := smallGyre(1, 1)
	_, elapsed, err := RunSerial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestIsomorphNames(t *testing.T) {
	d := tile.Decomp{NXg: 128, NYg: 64, Px: 1, Py: 1, PeriodicX: true}
	for _, c := range []struct {
		cfg  Config
		want string
	}{{CoarseOceanConfig(d), "ocean"}, {CoarseAtmosphereConfig(d), "atmosphere"}} {
		if got := c.cfg.Iso.String(); got != c.want {
			t.Errorf("%s: isomorph %q, want %q", c.cfg.Name, got, c.want)
		}
	}
}
