package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
)

func testGrid(t *testing.T, nx, ny, nz int) *grid.Local {
	t.Helper()
	dz := make([]float64, nz)
	for k := range dz {
		dz[k] = 200
	}
	g, err := grid.NewLocal(grid.Config{
		NX: nx, NY: ny, NZ: nz, DX: 2e4, DY: 2e4, Lat0: 45, DZ: dz,
	}, 0, 0, nx, ny, Halo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testParams() *Params {
	return &Params{
		Dt: 600, AhMom: 100, KhTracer: 50, AvMom: 1e-3, KvTracer: 1e-5,
		ABEps: 0.01, EOS: eos.DefaultOcean(), ImplicitConvection: true,
	}
}

func TestHydrostaticUniformBuoyancy(t *testing.T) {
	g := testGrid(t, 6, 6, 4)
	s := NewState(6, 6, 4)
	p := testParams()
	// Uniform theta at the EOS reference: zero buoyancy, zero pressure.
	s.Theta.Fill(10)
	s.Salt.Fill(35)
	var c Counters
	Hydrostatic(g, s, p, &c)
	for k := 0; k < 4; k++ {
		if ph := s.Phy.At(3, 3, k); math.Abs(ph) > 1e-12 {
			t.Fatalf("phy(k=%d) = %g for neutral fluid", k, ph)
		}
	}
	// Warm (buoyant) column: pressure anomaly negative, growing with
	// depth.
	s.Theta.Fill(20)
	Hydrostatic(g, s, p, &c)
	prev := 0.0
	for k := 0; k < 4; k++ {
		ph := s.Phy.At(3, 3, k)
		if ph >= prev {
			t.Fatalf("phy not decreasing with depth in a warm column: phy(%d)=%g prev=%g", k, ph, prev)
		}
		prev = ph
	}
	if c.PS == 0 {
		t.Fatal("no flops counted")
	}
}

func TestHydrostaticMatchesAnalytic(t *testing.T) {
	g := testGrid(t, 4, 4, 3)
	s := NewState(4, 4, 3)
	p := testParams()
	s.Theta.Fill(15) // 5 K above reference
	s.Salt.Fill(35)
	var c Counters
	Hydrostatic(g, s, p, &c)
	b := p.EOS.Buoyancy(15, 35, 0)
	// phy at centre of level k: -b * (k+0.5)*dz
	for k := 0; k < 3; k++ {
		want := -b * (float64(k) + 0.5) * 200
		if got := s.Phy.At(1, 1, k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("phy(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestStepTracersABWeights(t *testing.T) {
	g := testGrid(t, 4, 4, 1)
	s := NewState(4, 4, 1)
	p := testParams()
	// Inject known tendencies directly.
	s.GTh().Fill(2) // current level
	StepTracers(g, s, p, &c0)
	// First step: forward Euler.
	if got := s.Theta.At(1, 1, 0); math.Abs(got-2*600) > 1e-9 {
		t.Fatalf("Euler step = %g, want 1200", got)
	}
	s.Rotate()
	s.GTh().Fill(4)
	StepTracers(g, s, p, &c0)
	// AB2: dt*((1.5+eps)*4 - (0.5+eps)*2)
	want := 1200 + 600*((1.5+0.01)*4-(0.5+0.01)*2)
	if got := s.Theta.At(1, 1, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("AB2 step = %g, want %g", got, want)
	}
}

var c0 Counters

func TestContinuityClosedColumn(t *testing.T) {
	g := testGrid(t, 6, 6, 3)
	s := NewState(6, 6, 3)
	var c Counters
	// A discretely divergence-free flow from a corner streamfunction
	// that vanishes at the walls: u = dpsi/dy, v = -dpsi/dx (constant
	// metrics make the discrete divergence telescope to zero).
	psi := func(i, j int) float64 {
		if i <= 0 || i >= 6 || j <= 0 || j >= 6 {
			return 0
		}
		return math.Sin(float64(i)) * math.Cos(float64(j)*0.7)
	}
	for k := 0; k < 3; k++ {
		for j := -Halo; j < 6+Halo; j++ {
			for i := -Halo; i < 6+Halo; i++ {
				s.U.Set(i, j, k, psi(i, j+1)-psi(i, j))
				s.V.Set(i, j, k, -(psi(i+1, j) - psi(i, j)))
			}
		}
	}
	Continuity(g, s, &c)
	for k := 0; k < 3; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 6; i++ {
				if w := s.W.At(i, j, k); math.Abs(w) > 1e-15 {
					t.Fatalf("w(%d,%d,%d) = %g for non-divergent flow", i, j, k, w)
				}
			}
		}
	}
}

func TestContinuityDivergentFlow(t *testing.T) {
	g := testGrid(t, 6, 6, 2)
	s := NewState(6, 6, 2)
	var c Counters
	// Level 0: converging flow (du/dx < 0) forces downwelling w > 0 at
	// the interface below.
	for j := -Halo; j < 6+Halo; j++ {
		for i := -Halo; i < 6+Halo; i++ {
			s.U.Set(i, j, 0, -float64(i)*0.01)
		}
	}
	Continuity(g, s, &c)
	if w := s.W.At(3, 3, 1); w <= 0 {
		t.Fatalf("convergent surface level should downwell; w = %g", w)
	}
}

func TestConvectiveAdjustStabilizes(t *testing.T) {
	g := testGrid(t, 4, 4, 4)
	s := NewState(4, 4, 4)
	p := testParams()
	// Cold (dense) water over warm: statically unstable.
	for k := 0; k < 4; k++ {
		s.Salt.Fill(35)
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				s.Theta.Set(i, j, k, float64(k)) // warmer below
			}
		}
	}
	var c Counters
	ConvectiveAdjust(g, s, p, &c)
	// Every column must now be stably stratified: buoyancy
	// non-increasing with depth.
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			for k := 0; k < 3; k++ {
				b0 := p.EOS.Buoyancy(s.Theta.At(i, j, k), 35, k)
				b1 := p.EOS.Buoyancy(s.Theta.At(i, j, k+1), 35, k+1)
				if b1 > b0+1e-12 {
					t.Fatalf("column (%d,%d) still unstable at k=%d", i, j, k)
				}
			}
		}
	}
	// Heat is conserved by the mixing (uniform dz).
	sum := 0.0
	for k := 0; k < 4; k++ {
		sum += s.Theta.At(1, 1, k)
	}
	if math.Abs(sum-(0+1+2+3)) > 1e-9 {
		t.Fatalf("column heat changed: %g", sum)
	}
}

func TestConvectiveAdjustDisabledByFlag(t *testing.T) {
	g := testGrid(t, 4, 4, 2)
	s := NewState(4, 4, 2)
	p := testParams()
	p.ImplicitConvection = false
	s.Theta.Set(1, 1, 0, 0)
	s.Theta.Set(1, 1, 1, 5) // unstable
	var c Counters
	ConvectiveAdjust(g, s, p, &c)
	if s.Theta.At(1, 1, 1) != 5 {
		t.Fatal("adjustment ran despite the flag")
	}
}

func TestMomentumCoriolisOnly(t *testing.T) {
	// A uniform v field on an f-plane, no gradients: Gu = +f*v, Gv ~ 0
	// (uBar = 0).
	g := testGrid(t, 6, 6, 1)
	s := NewState(6, 6, 1)
	p := testParams()
	p.AhMom, p.AvMom = 0, 0
	s.V.Fill(0.5)
	s.Theta.Fill(10)
	s.Salt.Fill(35)
	var c Counters
	ComputeGMomentum(g, s, p, &c)
	f := g.F(3)
	if got := s.GU().At(3, 3, 0); math.Abs(got-f*0.5) > 1e-12 {
		t.Fatalf("Gu = %g, want f*v = %g", got, f*0.5)
	}
	if got := s.GV().At(3, 3, 0); math.Abs(got) > 1e-12 {
		t.Fatalf("Gv = %g, want 0", got)
	}
}

func TestTracerTendencyZeroForUniformField(t *testing.T) {
	// Uniform tracer in any non-divergent flow has zero advective
	// tendency; diffusion is zero too.
	f := func(u0, v0 float64) bool {
		g := gTest
		s := NewState(6, 6, 2)
		s.Theta.Fill(12)
		s.Salt.Fill(34)
		s.U.Fill(math.Mod(u0, 1))
		s.V.Fill(math.Mod(v0, 1))
		p := testParams()
		var c Counters
		ComputeGTracers(g, s, p, &c)
		for j := 0; j < 6; j++ {
			for i := 0; i < 6; i++ {
				if math.Abs(s.GTh().At(i, j, 0)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

var gTest *grid.Local

func TestMain(m *testing.M) {
	dz := []float64{200, 200}
	gTest, _ = grid.NewLocal(grid.Config{
		NX: 6, NY: 6, NZ: 2, DX: 2e4, DY: 2e4, Lat0: 45, DZ: dz,
	}, 0, 0, 6, 6, Halo)
	m.Run()
}

func TestParamsValidate(t *testing.T) {
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Dt = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero Dt accepted")
	}
	p = testParams()
	p.EOS = nil
	if err := p.Validate(); err == nil {
		t.Fatal("nil EOS accepted")
	}
	p = testParams()
	p.KhTracer = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative diffusivity accepted")
	}
}

func TestCountersHooks(t *testing.T) {
	var charged int64
	c := Counters{ChargePS: func(f int64) { charged += f }}
	c.AddPS(100)
	c.AddDS(50)
	if c.PS != 100 || c.DS != 50 || charged != 100 {
		t.Fatalf("counters: %+v charged=%d", c, charged)
	}
}

// landHalo closes the basin: everything outside the tile interior is
// land, as beyond the walls of a non-periodic domain.
func landHalo(g *grid.Local) {
	for k := 0; k < g.NZ; k++ {
		for j := -g.H; j < g.NY+g.H; j++ {
			for i := -g.H; i < g.NX+g.H; i++ {
				if i < 0 || i >= g.NX || j < 0 || j >= g.NY {
					g.HFacC.Set(i, j, k, 0)
				}
			}
		}
	}
	faceMasks(g)
}

// TestTracerFluxesTelescope pins the flux form itself, with no recorded
// value involved: what leaves a cell through a face enters the cell on
// the other side, so in a closed basin the volume-weighted tendencies
// sum to zero, and two wet cells alone in a basin of land receive
// exactly opposite contributions from the one face they share.  That
// holds on the grids package grid builds, beta-plane and sphere, whose
// DYC is uniform.  Were it not, the two sides of a south face would
// divide the same step by different spacings: the form would not be
// conservative, which is why ComputeGTracers shares a meridional flux
// only between rows of equal DYC.
func TestTracerFluxesTelescope(t *testing.T) {
	const nx, ny, nz = 12, 9, 6
	const ulp = 1.0 / (1 << 52)
	p := testParams()
	for kind := 0; kind < 2; kind++ {
		rng := rand.New(rand.NewSource(int64(40 + kind)))
		g := oracleGrid(t, rng, nx, ny, nz, kind)
		landHalo(g)
		s, _ := oracleState(rng, nx, ny, nz, 12, 35, 0.3)
		var c Counters
		ComputeGTracers(g, s, p, &c)

		// A face flux is at most fa*(|vel|*|tracer| + diff*|step|/d).
		// Every cell rounds six of them into a sum, divides by its
		// volume, and the test multiplies it back and adds the cells
		// up: (8 + cells) roundings of at most 6*cells*fluxMax.
		var velMax, trMax, faMax, dMin float64 = 0, 0, 0, math.Inf(1)
		for _, f := range []*field.F3{s.U, s.V, s.W} {
			for _, v := range f.Raw() {
				velMax = math.Max(velMax, math.Abs(v))
			}
		}
		for _, f := range []*field.F3{s.Theta, s.Salt} {
			for _, v := range f.Raw() {
				trMax = math.Max(trMax, math.Abs(v))
			}
		}
		dzMax := g.DZ[nz-1]
		for j := 0; j <= ny; j++ {
			faMax = math.Max(faMax, math.Max(g.DXC(j)*g.DYC(j), math.Max(g.DYC(j), g.DXS(j))*dzMax))
			dMin = math.Min(dMin, math.Min(g.DXC(j), g.DYC(j)))
		}
		dMin = math.Min(dMin, g.DZ[0])
		diff := math.Max(p.KhTracer, p.KvTracer)
		fluxMax := faMax * (velMax*trMax + diff*2*trMax/dMin)

		var sumTh, sumS float64
		cells := 0
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					if g.HFacC.At(i, j, k) == 0 {
						continue
					}
					cells++
					sumTh += s.GTh().At(i, j, k) * g.CellVolume(i, j, k)
					sumS += s.GS().At(i, j, k) * g.CellVolume(i, j, k)
				}
			}
		}
		bound := float64(8+cells) * ulp * 6 * float64(cells) * fluxMax
		t.Logf("grid %d: %d wet cells, sums %g and %g, bound %g", kind, cells, sumTh, sumS, bound)
		if math.Abs(sumTh) > bound || math.Abs(sumS) > bound {
			t.Errorf("grid %d: %d wet cells, sum gth*vol = %g, sum gs*vol = %g, bound %g (largest flux %g)",
				kind, cells, sumTh, sumS, bound, fluxMax)
		}

		// Two wet cells in a basin of land, side by side along each axis.
		for trial := 0; trial < 30; trial++ {
			ia, ja, ka := rng.Intn(nx-1), rng.Intn(ny-1), rng.Intn(nz-1)
			ib, jb, kb := ia, ja, ka
			switch trial % 3 {
			case 0:
				ib++
			case 1:
				jb++
			default:
				kb++
			}
			g.HFacC.Fill(0)
			g.HFacC.Set(ia, ja, ka, 1)
			g.HFacC.Set(ib, jb, kb, 0.2+0.8*rng.Float64())
			faceMasks(g)
			ComputeGTracers(g, s, p, &c)
			for _, gt := range []*field.F3{s.GTh(), s.GS()} {
				a := gt.At(ia, ja, ka) * g.CellVolume(ia, ja, ka)
				b := gt.At(ib, jb, kb) * g.CellVolume(ib, jb, kb)
				// Each side is the same flux divided by a volume and
				// multiplied back: two roundings apiece.
				if a == 0 || math.Abs(a+b) > 4*ulp*math.Abs(a) {
					t.Fatalf("grid %d pair (%d,%d,%d)-(%d,%d,%d): contributions %g and %g are not opposite",
						kind, ia, ja, ka, ib, jb, kb, a, b)
				}
			}
		}
	}
}
