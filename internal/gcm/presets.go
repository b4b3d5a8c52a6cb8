package gcm

import (
	"math"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/tile"
)

// WindStress is the idealized ocean surface forcing: a zonal wind
// stress profile driving gyres/circumpolar flow, plus surface
// restoring of temperature and salinity to latitudinal profiles.
type WindStress struct {
	Tau0        float64 // kinematic stress amplitude (m^2/s^2)
	RestoreDays float64 // surface restoring timescale
	ThetaEq     float64 // equatorial restoring temperature (C)
	ThetaPole   float64 // polar restoring temperature (C)
	SaltMean    float64 // mean restoring salinity
	SaltRange   float64 // equator-pole salinity contrast
}

// DefaultWindStress returns coarse-resolution forcing values.
func DefaultWindStress() *WindStress {
	return &WindStress{
		Tau0:        1e-4, // ~0.1 N/m^2 over rho0 = 1000
		RestoreDays: 30,
		ThetaEq:     27,
		ThetaPole:   -1,
		SaltMean:    35,
		SaltRange:   1.5,
	}
}

// AddTendencies implements kernel.Forcing.
func (ws *WindStress) AddTendencies(g *grid.Local, s *kernel.State, p *kernel.Params, c *kernel.Counters) {
	m := kernel.Halo - 1
	dz0 := g.DZ[0]
	invTau := 1 / (ws.RestoreDays * 86400)
	gu := s.GU()
	gth := s.GTh()
	for j := -m; j < g.NY+m; j++ {
		lat := g.Lat(j)
		phi := lat * math.Pi / 180
		// Trade-easterlies / mid-latitude westerlies profile.
		tau := ws.Tau0 * (-math.Cos(3*phi) * math.Cos(phi))
		thetaStar := ws.ThetaPole + (ws.ThetaEq-ws.ThetaPole)*math.Cos(phi)*math.Cos(phi)
		for i := -m; i < g.NX+m+1; i++ {
			if g.HFacW.At(i, j, 0) > 0 {
				gu.Add(i, j, 0, tau/(dz0*g.HFacW.At(i, j, 0)))
			}
			if i <= g.NX+m-1 && g.HFacC.At(i, j, 0) > 0 {
				gth.Add(i, j, 0, (thetaStar-s.Theta.At(i, j, 0))*invTau)
			}
		}
	}
	c.AddPS(int64((g.NY + 2*m) * (g.NX + 2*m) * 8))
}

// defaultDZ builds nz thicknesses totalling depth, thinner near the
// surface (geometric stretching).
func defaultDZ(nz int, depth float64) []float64 {
	dz := make([]float64, nz)
	r := 1.35
	unit := depth * (r - 1) / (math.Pow(r, float64(nz)) - 1)
	for k := range dz {
		dz[k] = unit * math.Pow(r, float64(k))
	}
	return dz
}

// idealContinents is the DepthFrac of a two-continent aquaplanet: land
// bands standing in for the Americas and Afro-Eurasia, a circumpolar
// channel in the south, and a mid-ocean ridge — enough geometry to
// exercise the shaved-cell machinery and produce gyres and boundary
// currents.
func idealContinents(x, y float64) float64 {
	lat := -80 + 160*y // matches CoarseOceanConfig's latitude range
	inBand := func(lo, hi float64) bool { return x >= lo && x < hi }
	// Polar caps are land.
	if lat > 72 || lat < -76 {
		return 0
	}
	// "Americas": narrow band; gap for a Drake-passage channel.
	if inBand(0.20, 0.26) && lat > -55 && lat < 65 {
		return 0
	}
	// "Afro-Eurasia": wider band.
	if inBand(0.55, 0.70) && lat > -38 && lat < 68 {
		return 0
	}
	// Mid-ocean ridge: half depth.
	if inBand(0.38, 0.41) || inBand(0.85, 0.88) {
		return 0.55
	}
	// Continental shelves next to the land bands.
	if inBand(0.18, 0.20) || inBand(0.26, 0.28) || inBand(0.53, 0.55) || inBand(0.70, 0.72) {
		return 0.35
	}
	return 1
}

// CoarseOceanConfig is the paper's production ocean isomorph: a
// 2.8125-degree global grid (128 x 64) with 15 levels, so that a
// 16-worker decomposition gives the Fig. 11 parameters
// nxy = 8192/workers and nxyz = 15 * nxy.
func CoarseOceanConfig(d tile.Decomp) Config {
	if d.NXg == 0 {
		d = tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true}
	}
	return Config{
		Name: "coarse-ocean",
		Iso:  Ocean,
		Grid: grid.Config{
			NX: d.NXg, NY: d.NYg, NZ: 15,
			Spherical: true, Lat0: -80, Lat1: 80, LonSpan: 360,
			DZ:        defaultDZ(15, 5000),
			DepthFrac: idealContinents,
			MinHFac:   0.2,
		},
		Kernel: kernel.Params{
			Dt:       405, // 77760 steps/year, as in §5.3
			AhMom:    2.5e5,
			AvMom:    1e-3,
			KhTracer: 1e3,
			KvTracer: 3e-5,
			BotDrag:  1e-6,
			EOS:      eos.DefaultOcean(),
		},
		Decomp: d,
		// Tuned so the warm-started SSOR-preconditioned CG averages near
		// the paper's Ni ~ 60 iterations per step.
		SolverTol:     3e-3,
		SolverMaxIter: 300,
		Forcing:       DefaultWindStress(),
		Init:          OceanInit,
	}
}

// OceanInit sets a stably stratified temperature/salinity field with a
// small thermal perturbation to break symmetry.
func OceanInit(g *grid.Local, s *kernel.State) {
	for k := 0; k < g.NZ; k++ {
		zf := g.ZFrac(k)
		tz := 25*math.Exp(-4*zf) - 1
		for j := -g.H; j < g.NY+g.H; j++ {
			phi := g.Lat(j) * math.Pi / 180
			surf := math.Cos(phi) * math.Cos(phi)
			for i := -g.H; i < g.NX+g.H; i++ {
				th := tz*surf + 0.01*math.Sin(7*float64(g.I0+i))
				s.Theta.Set(i, j, k, th)
				s.Salt.Set(i, j, k, 35-0.5*zf)
			}
		}
	}
}

// CoarseAtmosphereConfig is the 2.8125-degree atmospheric isomorph:
// 128 x 64 lateral, five levels (Fig. 11: nxyz = 5 * nxy), with the
// intermediate-complexity physics attached by the caller (package
// physics) or run dry when Forcing is nil.
func CoarseAtmosphereConfig(d tile.Decomp) Config {
	if d.NXg == 0 {
		d = tile.Decomp{NXg: 128, NYg: 64, Px: 4, Py: 4, PeriodicX: true}
	}
	return Config{
		Name: "coarse-atmosphere",
		Iso:  Atmosphere,
		Grid: grid.Config{
			NX: d.NXg, NY: d.NYg, NZ: 5,
			Spherical: true, Lat0: -80, Lat1: 80, LonSpan: 360,
			// An equivalent-depth fluid standing in for the troposphere:
			// five 2-km layers.
			DZ: []float64{2000, 2000, 2000, 2000, 2000},
		},
		Kernel: kernel.Params{
			Dt:       405,
			AhMom:    8e5,
			AvMom:    1e-2,
			KhTracer: 8e5,
			KvTracer: 1e-2,
			EOS:      eos.DefaultAtmosphere(),
		},
		Decomp:        d,
		SolverTol:     3e-3,
		SolverMaxIter: 300,
		Init:          AtmosphereInit,
	}
}

// AtmosphereInit sets a stratified, laterally uniform potential
// temperature with a tiny zonal perturbation to break symmetry (k = 0
// is the model top).  As in the Held-Suarez benchmark, the meridional
// contrast is not present initially: starting from a balanced rest
// state avoids a violent gravity-wave adjustment, and the radiative
// relaxation of the physics package builds the circulation on its own
// timescale.
func AtmosphereInit(g *grid.Local, s *kernel.State) {
	nz := g.NZ
	for k := 0; k < nz; k++ {
		height := 1 - g.ZFrac(k) // 1 at top, 0 at ground
		for j := -g.H; j < g.NY+g.H; j++ {
			phi := g.Lat(j) * math.Pi / 180
			for i := -g.H; i < g.NX+g.H; i++ {
				th := 285 + 30*height + 0.01*math.Sin(5*float64(g.I0+i))
				s.Theta.Set(i, j, k, th)
				s.Salt.Set(i, j, k, 0.002*math.Cos(phi)*math.Cos(phi)*(1-height))
			}
		}
	}
}

// GyreConfig is a small wind-driven double-gyre ocean box on a
// beta-plane — the quickstart configuration: walls all round, flat
// bottom, fast to run at any tile count.
func GyreConfig(nx, ny, nz int, d tile.Decomp) Config {
	if d.NXg == 0 {
		d = tile.Decomp{NXg: nx, NYg: ny, Px: 1, Py: 1}
	}
	return Config{
		Name: "gyre",
		Iso:  Ocean,
		Grid: grid.Config{
			NX: nx, NY: ny, NZ: nz,
			Lat0: 30, DX: 20e3 * 64 / float64(nx), DY: 20e3 * 64 / float64(ny),
			DZ: defaultDZ(nz, 1800),
		},
		Kernel: kernel.Params{
			Dt:       1200,
			AhMom:    5e3,
			AvMom:    1e-3,
			KhTracer: 500,
			KvTracer: 1e-5,
			BotDrag:  1e-6,
			EOS:      eos.DefaultOcean(),
		},
		Decomp:        d,
		SolverTol:     1e-8,
		SolverMaxIter: 400,
		Forcing:       &WindStress{Tau0: 1e-4, RestoreDays: 60, ThetaEq: 22, ThetaPole: 8, SaltMean: 35},
		Init: func(g *grid.Local, s *kernel.State) {
			for k := 0; k < g.NZ; k++ {
				zf := g.ZFrac(k)
				for j := -g.H; j < g.NY+g.H; j++ {
					for i := -g.H; i < g.NX+g.H; i++ {
						s.Theta.Set(i, j, k, 18*math.Exp(-3*zf)+2)
						s.Salt.Set(i, j, k, 35)
					}
				}
			}
		},
	}
}
