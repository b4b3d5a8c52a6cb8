package physics

import (
	"math"
	"testing"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
)

func atmRig(t *testing.T) (*grid.Local, *kernel.State, *kernel.Params) {
	t.Helper()
	g, err := grid.NewLocal(grid.Config{
		NX: 16, NY: 8, NZ: 5, Spherical: true, Lat0: -80, Lat1: 80, LonSpan: 360,
		DZ: []float64{2000, 2000, 2000, 2000, 2000},
	}, 0, 0, 16, 8, kernel.Halo)
	if err != nil {
		t.Fatal(err)
	}
	s := kernel.NewState(16, 8, 5)
	s.Theta.Fill(280)
	p := &kernel.Params{Dt: 405, EOS: eos.DefaultAtmosphere()}
	return g, s, p
}

func TestRadiativeRelaxationSign(t *testing.T) {
	g, s, p := atmRig(t)
	ph := New(Default())
	var c kernel.Counters
	ph.AddTendencies(g, s, p, &c)
	// Equatorial surface: equilibrium ~300 K, state 280 K -> heating.
	k := g.NZ - 1
	jEq := g.NY / 2
	if gth := s.GTh().At(8, jEq, k); gth <= 0 {
		t.Fatalf("equatorial surface tendency = %g, want heating", gth)
	}
	// Polar surface equilibrium ~300-55*sin^2(75) ~ 249 K -> cooling.
	if gth := s.GTh().At(8, 0, k); gth >= 0 {
		t.Fatalf("polar surface tendency = %g, want cooling", gth)
	}
	if c.PS == 0 {
		t.Fatal("no physics flops counted")
	}
}

func TestEquilibriumHasNoTendency(t *testing.T) {
	g, s, p := atmRig(t)
	prm := Default()
	prm.QSat0 = 0 // dry
	ph := New(prm)
	// Set theta exactly to the equilibrium profile.
	for k := 0; k < g.NZ; k++ {
		height := 1 - g.ZFrac(k)
		for j := -2; j < g.NY+2; j++ {
			for i := -2; i < g.NX+2; i++ {
				s.Theta.Set(i, j, k, ph.thetaEq(g.Lat(j), height))
			}
		}
	}
	var c kernel.Counters
	ph.AddTendencies(g, s, p, &c)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if gth := s.GTh().At(i, j, k); math.Abs(gth) > 1e-15 {
					t.Fatalf("tendency %g at equilibrium (%d,%d,%d)", gth, i, j, k)
				}
			}
		}
	}
}

func TestRayleighFrictionOnlyNearSurface(t *testing.T) {
	g, s, p := atmRig(t)
	ph := New(Default())
	s.U.Fill(10)
	var c kernel.Counters
	ph.AddTendencies(g, s, p, &c)
	// Top level (sigma = 0.2 < SigmaB): no friction.
	if gu := s.GU().At(5, 4, 0); gu != 0 {
		t.Fatalf("friction at the model top: %g", gu)
	}
	// Surface level: decelerating.
	if gu := s.GU().At(5, 4, g.NZ-1); gu >= 0 {
		t.Fatalf("no surface friction: %g", gu)
	}
}

func TestCondensationHeatsAndDries(t *testing.T) {
	g, s, p := atmRig(t)
	prm := Default()
	ph := New(prm)
	// Supersaturate one surface cell.
	k := g.NZ - 1
	s.Salt.Set(5, 4, k, 0.05)
	var c kernel.Counters
	ph.AddTendencies(g, s, p, &c)
	if gq := s.GS().At(5, 4, k); gq >= 0 {
		t.Fatalf("supersaturated cell not condensing: %g", gq)
	}
	// The latent heating must exceed the plain radiative tendency of a
	// neighbouring unsaturated cell.
	dry := s.GTh().At(6, 4, k)
	wet := s.GTh().At(5, 4, k)
	if wet <= dry {
		t.Fatalf("no latent heating: wet %g <= dry %g", wet, dry)
	}
}

func TestSSTDrivesSurfaceFluxes(t *testing.T) {
	g, s, p := atmRig(t)
	ph := New(Default())
	sst := field.NewF2(16, 8, 2)
	sst.Fill(28) // warm ocean under 280 K air
	ph.SST = sst
	var c kernel.Counters
	ph.AddTendencies(g, s, p, &c)
	k := g.NZ - 1
	// 28 C = 301 K > 280 K: sensible heating of the surface level on
	// top of radiation; compare against the no-SST case.
	gWith := s.GTh().At(5, 4, k)
	g2, s2, p2 := atmRig(t)
	ph2 := New(Default())
	var c2 kernel.Counters
	ph2.AddTendencies(g2, s2, p2, &c2)
	gWithout := s2.GTh().At(5, 4, k)
	if gWith <= gWithout {
		t.Fatalf("warm SST did not add heat: %g vs %g", gWith, gWithout)
	}
}
