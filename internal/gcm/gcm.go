// Package gcm is the MIT General Circulation Model port at the heart
// of the reproduction (paper §3): a finite-volume, incompressible
// primitive-equation kernel whose ocean and atmosphere isomorphs share
// all numerics, stepped by the PS/DS loop of Fig. 6 over the tiled
// decomposition of Fig. 5.
//
// A Model instance is one worker's tile.  It runs identically on the
// serial endpoint (numerics tests, single-processor baselines) and on
// simulated-cluster endpoints (Hyades, modelled Ethernets), charging
// virtual processor time for its floating-point work at the measured
// phase rates Fps/Fds (kernel.PSTime/DSTime) so the discrete-event
// simulation reproduces the paper's timing analysis.
package gcm

import (
	"fmt"
	"math"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/reduce"
	"hyades/internal/gcm/solver"
	"hyades/internal/gcm/tile"
)

// Isomorph selects the fluid.
type Isomorph int

// The two isomorphs of §3.
const (
	Ocean Isomorph = iota
	Atmosphere
)

func (i Isomorph) String() string {
	if i == Atmosphere {
		return "atmosphere"
	}
	return "ocean"
}

// Config assembles a model run.
type Config struct {
	Name   string
	Iso    Isomorph
	Grid   grid.Config
	Kernel kernel.Params
	Decomp tile.Decomp

	SolverTol     float64
	SolverMaxIter int

	// Forcing supplies external tendencies; nil means unforced.
	Forcing kernel.Forcing

	// Init sets the initial condition on a tile; nil leaves the state
	// at rest and uniform.
	Init func(g *grid.Local, s *kernel.State)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if err := c.Kernel.Validate(); err != nil {
		return err
	}
	if c.Decomp.NXg != c.Grid.NX || c.Decomp.NYg != c.Grid.NY {
		return fmt.Errorf("gcm: decomposition %dx%d does not match grid %dx%d",
			c.Decomp.NXg, c.Decomp.NYg, c.Grid.NX, c.Grid.NY)
	}
	if err := c.Decomp.Validate(); err != nil {
		return err
	}
	if c.SolverMaxIter <= 0 {
		return fmt.Errorf("gcm: SolverMaxIter = %d", c.SolverMaxIter)
	}
	nx, ny := c.Decomp.TileSize()
	if nx < kernel.Halo || ny < kernel.Halo {
		return fmt.Errorf("gcm: %dx%d tile smaller than the halo width %d", nx, ny, kernel.Halo)
	}
	return nil
}

// Model is one worker's tile of a running simulation.
type Model struct {
	Cfg    Config
	EP     comm.Endpoint
	G      *grid.Local
	S      *kernel.State
	Halo   *tile.Halo
	Solver *solver.Solver
	C      kernel.Counters

	Steps int

	// Phase closures are bound once at construction (bindPhases) so the
	// hot Step path allocates nothing: each captures only the receiver's
	// long-lived components, and BuildRHS threads its result through rhs.
	phTracers, phStepTracers, phMomentum, phBuildRHS, phCorrect func()
	rhs                                                         *field.F2
}

// New builds the tile model for the calling worker.
func New(cfg Config, ep comm.Endpoint) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nx, ny := cfg.Decomp.TileSize()
	cfg.Grid.PeriodicX = cfg.Decomp.PeriodicX
	cfg.Grid.PeriodicY = cfg.Decomp.PeriodicY
	i0, j0 := cfg.Decomp.Origin(ep.Rank())
	g, err := grid.NewLocal(cfg.Grid, i0, j0, nx, ny, kernel.Halo)
	if err != nil {
		return nil, err
	}
	h, err := tile.NewHalo(ep, cfg.Decomp)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:  cfg,
		EP:   ep,
		G:    g,
		S:    kernel.NewState(nx, ny, cfg.Grid.NZ),
		Halo: h,
	}
	m.Solver = solver.New(g, h, cfg.SolverTol, cfg.SolverMaxIter)
	m.bindPhases()
	if cfg.Init != nil {
		cfg.Init(g, m.S)
	}
	m.applyMasks()
	// A constructor error (rank-dependent through the tile origin)
	// aborts the whole run before any rank exchanges; ranks that reach
	// this line all reach it.
	m.exchangeState() // bring halos current before the first step
	return m, nil
}

// applyMasks zeroes velocities and tracers on closed faces and cells.
func (m *Model) applyMasks() {
	g := m.G
	for k := 0; k < g.NZ; k++ {
		for j := -g.H; j < g.NY+g.H; j++ {
			for i := -g.H; i < g.NX+g.H; i++ {
				if g.HFacW.At(i, j, k) == 0 {
					m.S.U.Set(i, j, k, 0)
				}
				if g.HFacS.At(i, j, k) == 0 {
					m.S.V.Set(i, j, k, 0)
				}
				if g.HFacC.At(i, j, k) == 0 {
					m.S.W.Set(i, j, k, 0)
				}
			}
		}
	}
}

// exchangeState refreshes the halos of the five 3-D state variables —
// the single PS communication point of §4 (tps_exch = 5 * texchxyz).
func (m *Model) exchangeState() {
	m.Halo.Update3(m.S.U, kernel.Halo)
	m.Halo.Update3(m.S.V, kernel.Halo)
	m.Halo.Update3(m.S.W, kernel.Halo)
	m.Halo.Update3(m.S.Theta, kernel.Halo)
	m.Halo.Update3(m.S.Salt, kernel.Halo)
}

// bindPhases builds the Exec phase closures once.  Each kernel sweep
// here has analytically-known cost, which Step charges up front.
func (m *Model) bindPhases() {
	p := &m.Cfg.Kernel
	g, s, c := m.G, m.S, &m.C
	m.phTracers = func() {
		kernel.ComputeGTracers(g, s, p, c)
	}
	m.phStepTracers = func() {
		kernel.StepTracers(g, s, p, c)
	}
	m.phMomentum = func() {
		kernel.Hydrostatic(g, s, p, c)
		kernel.ComputeGMomentum(g, s, p, c)
		kernel.StepMomentum(g, s, p, c)
	}
	m.phBuildRHS = func() {
		m.rhs = m.Solver.BuildRHS(s, p.Dt, c)
	}
	m.phCorrect = func() {
		solver.CorrectVelocities(g, s, p.Dt, c)
		kernel.Continuity(g, s, c)
	}
}

// Step advances the model one time step through the PS/DS sequence of
// Fig. 6.
//
// Sweeps with analytically-known cost are grouped into phases and
// handed to Endpoint.Exec, which advances the virtual clock by exactly
// the modeled time; the phase runs at submission, or at its completion
// event when a pool is attached, on the one dispatcher thread either way.
// Data-dependent work — the forcing package, convective adjustment and
// everything that communicates — runs in the rank's process and is
// charged the flops it counted, once, after it runs.
func (m *Model) Step() {
	p := &m.Cfg.Kernel
	g, s, c := m.G, m.S, &m.C
	// ---- PS: prognostic step ----
	m.EP.Exec(kernel.PSTime(kernel.ComputeGTracersOps(g)), m.phTracers)
	if m.Cfg.Forcing != nil {
		ps0 := c.PS
		m.Cfg.Forcing.AddTendencies(g, s, p, c)
		m.EP.Busy(kernel.PSTime(c.PS - ps0))
	}
	m.EP.Exec(kernel.PSTime(kernel.StepTracersOps(g)), m.phStepTracers)
	ps0 := c.PS
	kernel.ConvectiveAdjust(g, s, p, c)
	m.EP.Busy(kernel.PSTime(c.PS - ps0))
	m.EP.Exec(kernel.PSTime(kernel.HydrostaticOps(g, p))+
		kernel.PSTime(kernel.ComputeGMomentumOps(g))+
		kernel.PSTime(kernel.StepMomentumOps(g)), m.phMomentum)
	// ---- DS: diagnostic step (surface pressure) ----
	m.EP.Exec(kernel.DSTime(solver.BuildRHSOps(g)), m.phBuildRHS)
	m.Solver.Solve(s.Ps, m.rhs, c)
	m.EP.Exec(kernel.DSTime(solver.CorrectVelocitiesOps(g))+
		kernel.PSTime(kernel.ContinuityOps(g)), m.phCorrect)
	m.rhs = nil
	m.S.Rotate()
	m.Steps++
	// The step's single halo-exchange point: state for the next step.
	m.exchangeState()
}

// Run advances n steps.
func (m *Model) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// TotalKE returns the global volume-integrated kinetic energy — a
// cheap stability/activity diagnostic (uses one global sum).
func (m *Model) TotalKE() float64 {
	g := m.G
	local := reduce.Over3(g.NX, g.NY, g.NZ, func(i, j, k int) float64 {
		u := 0.5 * (m.S.U.At(i, j, k) + m.S.U.At(i+1, j, k))
		v := 0.5 * (m.S.V.At(i, j, k) + m.S.V.At(i, j+1, k))
		return 0.5 * (u*u + v*v) * g.CellVolume(i, j, k)
	})
	return m.EP.GlobalSum(local)
}

// MeanTracer returns the volume-weighted global mean of theta —
// conservation diagnostic.
func (m *Model) MeanTracer() float64 {
	g := m.G
	sum := reduce.Over3(g.NX, g.NY, g.NZ, func(i, j, k int) float64 {
		return m.S.Theta.At(i, j, k) * g.CellVolume(i, j, k)
	})
	vol := reduce.Over3(g.NX, g.NY, g.NZ, func(i, j, k int) float64 {
		return g.CellVolume(i, j, k)
	})
	return m.EP.GlobalSum(sum) / m.EP.GlobalSum(vol)
}

// MaxDivergence returns the largest depth-integrated divergence left
// after the projection (global, via sum of squares).
func (m *Model) MaxDivergence() float64 {
	g := m.G
	// Dry columns contribute exactly 0.0, which leaves the running sum
	// bit-identical to the loop that skipped them.
	sum := reduce.Over2(g.NX, g.NY, func(i, j int) float64 {
		if g.Depth.At(i, j) == 0 {
			return 0
		}
		dx, dy := g.DXC(j), g.DYC(j)
		var div float64
		for k := 0; k < g.NZ; k++ {
			dz := g.DZ[k]
			div += dy*dz*(m.S.U.At(i+1, j, k)*g.HFacW.At(i+1, j, k)-m.S.U.At(i, j, k)*g.HFacW.At(i, j, k)) +
				dz*(g.DXS(j+1)*m.S.V.At(i, j+1, k)*g.HFacS.At(i, j+1, k)-g.DXS(j)*m.S.V.At(i, j, k)*g.HFacS.At(i, j, k))
		}
		div /= dx * dy * g.Depth.At(i, j)
		return div * div
	})
	total := m.EP.GlobalSum(sum)
	n := float64(m.Cfg.Grid.NX * m.Cfg.Grid.NY)
	if total <= 0 {
		return 0
	}
	return math.Sqrt(total / n)
}
