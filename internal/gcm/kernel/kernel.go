// Package kernel implements the Prognostic Step (PS) of the GCM
// algorithm (paper Fig. 6): evaluation of the time tendencies G for
// momentum and tracers, Adams-Bashforth extrapolation, the hydrostatic
// pressure integral, and the continuity diagnosis of vertical velocity.
//
// The numerics are a finite-volume Arakawa-C discretisation of the
// incompressible primitive equations in the style of Marshall et al.
// (1997), the paper's references [20][21]: flux-form tracer advection,
// advective-form momentum transport, Coriolis, Laplacian friction and
// diffusion, and shaved-cell volume factors from package grid.
//
// All terms at a cell are computable from a 3x3 lateral stencil, so —
// exactly as §4 describes — one halo exchange per time step suffices:
// tendencies are "overcomputed" into the halo region at a margin wide
// enough to feed every downstream stage of the step.
//
// Every routine accounts the floating-point operations of the kernel
// the paper models (see the *Ops helpers); the performance model of
// §5.2 consumes these counts as Nps.
package kernel

import (
	"fmt"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/units"
)

// Halo is the lateral overlap width required for single-exchange
// overcomputation.
const Halo = 3

// StateFields is the number of 3-D state variables exchanged per step
// (u, v, w, theta, salt) — the "5" in tps_exch = 5*texchxyz.
const StateFields = 5

// State holds one tile's prognostic and diagnostic fields.
type State struct {
	U, V, W     *field.F3 // velocities; W diagnosed, positive with k
	Theta, Salt *field.F3 // tracer pair (theta/salt or theta/humidity)
	Phy         *field.F3 // hydrostatic pressure potential (p'/rho0)
	Ps          *field.F2 // surface pressure potential

	// Tendency buffers at time levels n and n-1 (toggled by cur).
	gu, gv, gth, gs [2]*field.F3
	cur             int
	firstStep       bool

	// Scratch of the sweeps, sized once in NewState.  Not state: never
	// checkpointed, and a sweep reads only what it wrote in the same
	// call.
	accRow []float64    // per-column accumulators of one row (Hydrostatic, Continuity)
	buoy   []float64    // NZ rows of buoyancy (Hydrostatic uses the first, ConvectiveAdjust all)
	fluxN  [2][]float64 // ComputeGTracers: north-face fluxes of theta and salt, row swept last
	fluxB  [2]*field.F2 // ComputeGTracers: their bottom-face fluxes, level swept last
}

// NewState allocates the state for a tile of the given interior size.
func NewState(nx, ny, nz int) *State {
	f3 := func() *field.F3 { return field.NewF3(nx, ny, nz, Halo) }
	s := &State{
		U: f3(), V: f3(), W: f3(), Theta: f3(), Salt: f3(), Phy: f3(),
		Ps:        field.NewF2(nx, ny, 1),
		firstStep: true,
		accRow:    make([]float64, nx+2*Halo),
		buoy:      make([]float64, nz*(nx+2*Halo)),
	}
	for lv := 0; lv < 2; lv++ {
		s.gu[lv], s.gv[lv], s.gth[lv], s.gs[lv] = f3(), f3(), f3(), f3()
		s.fluxN[lv] = make([]float64, nx+2*Halo)
		s.fluxB[lv] = field.NewF2(nx, ny, Halo)
	}
	return s
}

// GU returns the current zonal-momentum tendency buffer.  Forcing
// implementations add their terms into these buffers before the
// Adams-Bashforth step.
func (s *State) GU() *field.F3 { return s.gu[s.cur] }

// GV returns the current meridional-momentum tendency buffer.
func (s *State) GV() *field.F3 { return s.gv[s.cur] }

// GTh returns the current theta tendency buffer.
func (s *State) GTh() *field.F3 { return s.gth[s.cur] }

// GS returns the current salinity/humidity tendency buffer.
func (s *State) GS() *field.F3 { return s.gs[s.cur] }

// Rotate flips the Adams-Bashforth buffers at the end of a step.
func (s *State) Rotate() {
	s.cur = 1 - s.cur
	s.firstStep = false
}

// ABCursor exposes the Adams-Bashforth buffer toggle for checkpointing.
func (s *State) ABCursor() int { return s.cur }

// SetABCursor restores the toggle and first-step flag from a
// checkpoint (started reports whether any step has completed).
func (s *State) SetABCursor(cur int, started bool) {
	s.cur = cur & 1
	s.firstStep = !started
}

// ABBuffers exposes both time levels of every tendency array, in a
// stable order, for checkpointing.
func (s *State) ABBuffers() []*field.F3 {
	return []*field.F3{
		s.gu[0], s.gu[1], s.gv[0], s.gv[1],
		s.gth[0], s.gth[1], s.gs[0], s.gs[1],
	}
}

// Params collects the kernel's physical and numerical parameters.
type Params struct {
	Dt       float64 // time step (s)
	AhMom    float64 // lateral viscosity (m^2/s)
	AvMom    float64 // vertical viscosity (m^2/s)
	KhTracer float64 // lateral diffusivity (m^2/s)
	KvTracer float64 // vertical diffusivity (m^2/s)
	BotDrag  float64 // linear bottom drag (1/s) on the deepest wet level
	ABEps    float64 // Adams-Bashforth stabilising offset
	EOS      eos.EOS
	// ImplicitConvection enables the convective-adjustment mixing pass.
	ImplicitConvection bool
}

// Validate sanity-checks the parameters.
func (p *Params) Validate() error {
	if p.Dt <= 0 {
		return fmt.Errorf("kernel: Dt = %g", p.Dt)
	}
	if p.EOS == nil {
		return fmt.Errorf("kernel: nil EOS")
	}
	if p.AhMom < 0 || p.KhTracer < 0 || p.AvMom < 0 || p.KvTracer < 0 {
		return fmt.Errorf("kernel: negative mixing coefficient")
	}
	return nil
}

// Counters accumulates floating-point operation counts, split by model
// phase as the performance model requires.  The optional charge hooks
// let a driver convert flops to simulated processor time at the
// measured phase rates (Fps, Fds of Fig. 11) at the same granularity
// as the real machine — between communication points.
type Counters struct {
	PS int64 // flops in the prognostic step
	DS int64 // flops in the diagnostic (solver) step

	ChargePS func(flops int64)
	ChargeDS func(flops int64)

	// TimePS/TimeDS convert a flop count into modeled processor time
	// at the phase rates (the same conversion the charge hooks use).
	// The parallel driver needs them to charge an offloaded phase's
	// cost *up front*: a phase handed to the worker pool must advance
	// the virtual clock by a duration fixed at submission time.
	TimePS func(flops int64) units.Time
	TimeDS func(flops int64) units.Time
}

// AddPS records prognostic-step work.
func (c *Counters) AddPS(f int64) {
	c.PS += f
	if c.ChargePS != nil {
		c.ChargePS(f)
	}
}

// AddDS records diagnostic-step work.
func (c *Counters) AddDS(f int64) {
	c.DS += f
	if c.ChargeDS != nil {
		c.ChargeDS(f)
	}
}

// SuspendCharges detaches the charge hooks around an offloaded compute
// phase whose time is charged up front (comm.Endpoint.Exec): charging
// from inside the phase would advance virtual time off the baton.
// Flop accumulation continues unchanged.  Returns the hooks for
// RestoreCharges.
func (c *Counters) SuspendCharges() (ps, ds func(int64)) {
	ps, ds = c.ChargePS, c.ChargeDS
	c.ChargePS, c.ChargeDS = nil, nil
	return ps, ds
}

// RestoreCharges reattaches hooks detached by SuspendCharges.
func (c *Counters) RestoreCharges(ps, ds func(int64)) {
	c.ChargePS, c.ChargeDS = ps, ds
}

// Forcing adds external tendencies (wind stress, heating, the
// atmospheric physics package) into the current G buffers.  AddingNil
// is allowed: a nil Forcing means an unforced fluid.
type Forcing interface {
	AddTendencies(g *grid.Local, s *State, p *Params, c *Counters)
}

// The *Ops helpers below are the flop counts of the state-independent
// sweeps of the *modelled* kernel: the Fortran loop bodies whose work
// per cell is Nps, an input of the performance model (Fig. 11).  They
// deliberately do not follow the host arithmetic -- ComputeGTracers
// charges all twelve face fluxes of a cell although the Go sweep
// computes six -- because they set virtual time, which is pinned
// bit for bit: a faster host sweep never changes a count.  Each kernel
// accounts exactly its helper's value, and the parallel driver evaluates
// the same helper *before* running the kernel to fix the phase's
// modeled duration at submission time.  Data-dependent routines
// (ConvectiveAdjust, Forcing implementations with conditional terms)
// deliberately have no helper: their cost is only known after
// execution, so they stay on the baton.

// ComputeGTracersOps returns ComputeGTracers' flop count:
// ~96 flops per swept cell for the twelve face-flux evaluations plus
// the volume divisions (hand count of the modelled loop body).
func ComputeGTracersOps(g *grid.Local) int64 {
	m := Halo - 1
	return int64(g.NZ*(g.NY+2*m)*(g.NX+2*m)) * 96
}

// StepTracersOps returns StepTracers' flop count.
func StepTracersOps(g *grid.Local) int64 {
	m := Halo - 1
	return int64(g.NZ*(g.NY+2*m)*(g.NX+2*m)) * 10
}

// HydrostaticOps returns Hydrostatic's flop count.
func HydrostaticOps(g *grid.Local, p *Params) int64 {
	m := Halo - 1
	return int64(g.NZ*(g.NY+2*m)*(g.NX+2*m)) * int64(4+p.EOS.FlopsPerCell())
}

// ComputeGMomentumOps returns the modelled ComputeGMomentum's flop count.
func ComputeGMomentumOps(g *grid.Local) int64 {
	m := 1
	return int64(g.NZ*(g.NY+2*m)*(g.NX+2*m+1)) * 110
}

// StepMomentumOps returns the modelled StepMomentum's flop count.
func StepMomentumOps(g *grid.Local) int64 {
	m := 1
	return int64(g.NZ*(g.NY+2*m)*(g.NX+2*m+1)) * 16
}

// ContinuityOps returns the modelled Continuity's flop count.
func ContinuityOps(g *grid.Local) int64 {
	return int64(g.NZ*g.NY*g.NX) * 12
}

// abCoeffs returns the Adams-Bashforth-2 weights; the first step falls
// back to forward Euler.
func (s *State) abCoeffs(eps float64) (aNow, aPrev float64) {
	if s.firstStep {
		return 1, 0
	}
	return 1.5 + eps, -(0.5 + eps)
}

// faceFlux is the flux of a tracer through the face between two cells,
// lo on the low-index side: the face velocity carries their mean and the
// diffusivity works down their gradient over the centre distance d,
// through the open face area fa.
func faceFlux(fa, vel, diff, lo, hi, d float64) float64 {
	return fa * (vel*(0.5*(lo+hi)) - diff*((hi-lo)/d))
}

// ComputeGTracers evaluates advective and diffusive tendencies for
// theta and salt on the overcomputation margin [-2, n+2), in flux form
// (conservative): a cell gains what crosses its west, south and top
// faces and loses what crosses its east, north and bottom faces,
// accumulated in that order.
//
// A face's flux is computed once.  What leaves a cell to the east,
// north or below is, operand for operand, what enters its neighbour
// from the west, south or above, so the cell computes only the three
// outgoing faces and takes the incoming ones from where the neighbour
// left them: the zonal pair in locals, the meridional pair in a row
// buffer, the vertical pair in a plane buffer.  An incoming face is
// computed here only where no wet neighbour swept it: beside land, on
// the first row and column of the margin, and on a row whose DYC
// differs from the row to the south (the two would divide the same
// gradient by different spacings).  HFacC is never negative, so the
// cell above computed its bottom face exactly where this one needs a
// top face.
func ComputeGTracers(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := Halo - 1 // stencil reaches one further; halo is 3
	gth, gs := s.gth[s.cur], s.gs[s.cur]
	nz := g.NZ
	kh, kv := p.KhTracer, p.KvTracer
	// Every row is cut to L, the sweep's bound, and a row read one
	// column to the east has a second view shifted by one (xE[n] is
	// x[n+1]), so that no index in the cell loop is range-checked.
	L := g.NX + 2*h - 1
	fnTh, fnS := s.fluxN[0][:L], s.fluxN[1][:L]
	for k := 0; k < nz; k++ {
		dz := g.DZ[k]
		// The levels above and below, clamped at the surface and the
		// bottom, where the guards in the cell skip them.
		kUp, kDn := max(k-1, 0), min(k+1, nz-1)
		dzFDn := 0.5 * (g.DZ[k] + g.DZ[kDn])
		for j := -m; j < g.NY+m; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			area := dx * dy
			dxsS, dxsN := g.DXS(j), g.DXS(j+1)
			sharedS := j > -m && g.DYC(j-1) == dy
			hcr := g.HFacC.Row(j, k)[:L]
			hcrS := g.HFacC.Row(j-1, k)[:L]
			hcrUp := g.HFacC.Row(j, kUp)[:L]
			hcrDn := g.HFacC.Row(j, kDn)[:L]
			hwr, hwrE := g.HFacW.Row(j, k)[:L], g.HFacW.Row(j, k)[1:L+1]
			hsr := g.HFacS.Row(j, k)[:L]
			hsrN := g.HFacS.Row(j+1, k)[:L]
			ur, urE := s.U.Row(j, k)[:L], s.U.Row(j, k)[1:L+1]
			vr := s.V.Row(j, k)[:L]
			vrN := s.V.Row(j+1, k)[:L]
			wrDn := s.W.Row(j, kDn)[:L]
			thr, thrE := s.Theta.Row(j, k)[:L], s.Theta.Row(j, k)[1:L+1]
			thrS := s.Theta.Row(j-1, k)[:L]
			thrN := s.Theta.Row(j+1, k)[:L]
			thrDn := s.Theta.Row(j, kDn)[:L]
			sar, sarE := s.Salt.Row(j, k)[:L], s.Salt.Row(j, k)[1:L+1]
			sarS := s.Salt.Row(j-1, k)[:L]
			sarN := s.Salt.Row(j+1, k)[:L]
			sarDn := s.Salt.Row(j, kDn)[:L]
			gthr := gth.Row(j, k)[:L]
			gsr := gs.Row(j, k)[:L]
			fbTh, fbS := s.fluxB[0].Row(j)[:L], s.fluxB[1].Row(j)[:L]
			// fxTh, fxS hold the east-face fluxes of the cell to the
			// west while that cell is wet.
			wetW := false
			var fxTh, fxS float64
			for n := h - m; n < L; n++ {
				hc := hcr[n]
				if hc == 0 {
					gthr[n] = 0
					gsr[n] = 0
					wetW = false
					continue
				}
				vol := area * dz * hc
				th, sa := thr[n], sar[n]
				if !wetW {
					fa := dy * dz * hwr[n]
					fxTh = faceFlux(fa, ur[n], kh, thr[n-1], th, dx)
					fxS = faceFlux(fa, ur[n], kh, sar[n-1], sa, dx)
				}
				conv := 0.0 // not fxTh: a closed face's -0 must not start the sum
				convS := 0.0
				conv += fxTh
				convS += fxS
				fa := dy * dz * hwrE[n]
				fxTh = faceFlux(fa, urE[n], kh, th, thrE[n], dx)
				fxS = faceFlux(fa, urE[n], kh, sa, sarE[n], dx)
				wetW = true
				conv -= fxTh
				convS -= fxS
				fyTh, fyS := fnTh[n], fnS[n]
				if !sharedS || hcrS[n] == 0 {
					fa = dxsS * dz * hsr[n]
					fyTh = faceFlux(fa, vr[n], kh, thrS[n], th, dy)
					fyS = faceFlux(fa, vr[n], kh, sarS[n], sa, dy)
				}
				conv += fyTh
				convS += fyS
				fa = dxsN * dz * hsrN[n]
				fyTh = faceFlux(fa, vrN[n], kh, th, thrN[n], dy)
				fyS = faceFlux(fa, vrN[n], kh, sa, sarN[n], dy)
				fnTh[n], fnS[n] = fyTh, fyS
				conv -= fyTh
				convS -= fyS
				// w lives on top faces, w(k=0) = 0; no flux through land.
				if k > 0 && hcrUp[n] > 0 {
					conv += fbTh[n]
					convS += fbS[n]
				}
				if k < nz-1 && hcrDn[n] > 0 {
					fzTh := faceFlux(area, wrDn[n], kv, th, thrDn[n], dzFDn)
					fzS := faceFlux(area, wrDn[n], kv, sa, sarDn[n], dzFDn)
					fbTh[n], fbS[n] = fzTh, fzS
					conv -= fzTh
					convS -= fzS
				}
				gthr[n] = conv / vol
				gsr[n] = convS / vol
			}
		}
	}
	c.AddPS(ComputeGTracersOps(g))
}

// StepTracers applies AB2 extrapolation and advances theta and salt on
// the margin [-2, n+2).
func StepTracers(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := Halo - 1
	aNow, aPrev := s.abCoeffs(p.ABEps)
	now, prev := s.cur, 1-s.cur
	dt := p.Dt
	for k := 0; k < g.NZ; k++ {
		for j := -m; j < g.NY+m; j++ {
			hcr := g.HFacC.Row(j, k)
			thr := s.Theta.Row(j, k)
			sar := s.Salt.Row(j, k)
			gthN := s.gth[now].Row(j, k)
			gthP := s.gth[prev].Row(j, k)
			gsN := s.gs[now].Row(j, k)
			gsP := s.gs[prev].Row(j, k)
			for i := -m; i < g.NX+m; i++ {
				n := i + h
				if hcr[n] == 0 {
					continue
				}
				thr[n] += dt * (aNow*gthN[n] + aPrev*gthP[n])
				sar[n] += dt * (aNow*gsN[n] + aPrev*gsP[n])
			}
		}
	}
	c.AddPS(StepTracersOps(g))
}

// Hydrostatic integrates buoyancy downward into the hydrostatic
// pressure potential phy (paper eq. 3 context): phy(k) is the pressure
// anomaly at the centre of level k per unit reference density.
func Hydrostatic(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := Halo - 1
	first, end := h-m, g.NX+m+h // the swept columns, as row indices
	acc := s.accRow
	b := s.buoy[:len(acc)]
	for j := -m; j < g.NY+m; j++ {
		clear(acc)
		// The downward integral runs k-outer over per-column
		// accumulators: each column still applies its half-level
		// increments in ascending-k order, bit-identical to the
		// column-inner loop.
		for k := 0; k < g.NZ; k++ {
			halfDz := 0.5 * g.DZ[k]
			hcr := g.HFacC.Row(j, k)
			phr := s.Phy.Row(j, k)
			p.EOS.BuoyancyRow(b[first:end], s.Theta.Row(j, k)[first:end], s.Salt.Row(j, k)[first:end], k)
			for n := first; n < end; n++ {
				a := acc[n]
				if hcr[n] == 0 {
					phr[n] = a
					continue
				}
				half := halfDz * b[n]
				a -= half // buoyant fluid lowers pressure below it
				phr[n] = a
				acc[n] = a - half
			}
		}
	}
	c.AddPS(HydrostaticOps(g, p))
}

// ComputeGMomentum evaluates the velocity tendencies on margin
// [-1, n+1): advection, Coriolis, lateral and vertical friction and
// bottom drag.  The pressure gradients are applied in StepMomentum, as
// in eq. (1) of the paper where grad(p) stands apart from G.
//
// Every row the stencil touches is hoisted per (k,j) and the vertical
// spacings per k; the surface and bottom levels difference one-sidedly
// (the k-switch in the cell).  Faces up to index n+1 are swept.
func ComputeGMomentum(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := 1
	gu, gv := s.gu[s.cur], s.gv[s.cur]
	nz := g.NZ
	ah, av, botDrag := p.AhMom, p.AvMom, p.BotDrag
	L := g.NX + 2*h - 1 // rows and their east views are cut as in ComputeGTracers
	for k := 0; k < nz; k++ {
		dzK := g.DZ[k]
		// The levels above and below, clamped at the surface and the
		// bottom, where the guards in the cell skip them.
		kUp, kDn := max(k-1, 0), min(k+1, nz-1)
		dzFUp := 0.5 * (g.DZ[kUp] + g.DZ[k])
		dzFDn := 0.5 * (g.DZ[k] + g.DZ[kDn])
		dzMid := g.DZ[k] + 0.5*(g.DZ[kUp]+g.DZ[kDn])
		for j := -m; j < g.NY+m; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			dx2, dy2 := 2*dx, 2*dy
			dxdx, dydy := dx*dx, dy*dy
			f := g.F(j)
			hw := g.HFacW.Row(j, k)[:L]
			hs := g.HFacS.Row(j, k)[:L]
			hcr := g.HFacC.Row(j, k)[:L]
			hcrDn := g.HFacC.Row(j, kDn)[:L]
			ur, urE := s.U.Row(j, k)[:L], s.U.Row(j, k)[1:L+1]
			urS, urSE := s.U.Row(j-1, k)[:L], s.U.Row(j-1, k)[1:L+1]
			urN := s.U.Row(j+1, k)[:L]
			uUp := s.U.Row(j, kUp)[:L]
			uDn := s.U.Row(j, kDn)[:L]
			vr, vrE := s.V.Row(j, k)[:L], s.V.Row(j, k)[1:L+1]
			vrS := s.V.Row(j-1, k)[:L]
			vrN := s.V.Row(j+1, k)[:L]
			vUp := s.V.Row(j, kUp)[:L]
			vDn := s.V.Row(j, kDn)[:L]
			wJ := s.W.Row(j, k)[:L]
			wJS := s.W.Row(j-1, k)[:L]
			wJDn := s.W.Row(j, kDn)[:L]
			wJSDn := s.W.Row(j-1, kDn)[:L]
			gur := gu.Row(j, k)[:L]
			gvr := gv.Row(j, k)[:L]
			for n := h - m; n < L; n++ {
				// ---- u tendency at the west face (i,j,k) ----
				if hw[n] == 0 {
					gur[n] = 0
				} else {
					u := ur[n]
					vBar := 0.25 * (vr[n-1] + vr[n] + vrN[n-1] + vrN[n])
					dudx := (urE[n] - ur[n-1]) / dx2
					dudy := (urN[n] - urS[n]) / dy2
					adv := u*dudx + vBar*dudy
					if nz > 1 {
						wBar := 0.0
						var dudz float64
						switch {
						case k == 0:
							wBar = 0.5 * (wJDn[n-1] + wJDn[n])
							dudz = (uDn[n] - u) / dzFDn
						case k == nz-1:
							wBar = 0.5 * (wJ[n-1] + wJ[n])
							dudz = (u - uUp[n]) / dzFUp
						default:
							wBar = 0.25 * (wJ[n-1] + wJ[n] + wJDn[n-1] + wJDn[n])
							dudz = (uDn[n] - uUp[n]) / dzMid
						}
						adv += wBar * dudz
					}
					visc := ah * ((urE[n]-2*u+ur[n-1])/dxdx +
						(urN[n]-2*u+urS[n])/dydy)
					if nz > 1 {
						visc += vertLapRow(av, uUp, ur, uDn, n, k, nz, dzFUp, dzFDn, dzK)
					}
					tend := -adv + f*vBar + visc
					if botDrag > 0 && bottomAt(hcr, hcrDn, n, k, nz) {
						tend -= botDrag * u
					}
					gur[n] = tend
				}
				// ---- v tendency at the south face (i,j,k) ----
				if hs[n] == 0 {
					gvr[n] = 0
					continue
				}
				v := vr[n]
				uBar := 0.25 * (urS[n] + urSE[n] + ur[n] + urE[n])
				dvdx := (vrE[n] - vr[n-1]) / dx2
				dvdy := (vrN[n] - vrS[n]) / dy2
				adv := uBar*dvdx + v*dvdy
				if nz > 1 {
					wBar := 0.0
					var dvdz float64
					switch {
					case k == 0:
						wBar = 0.5 * (wJSDn[n] + wJDn[n])
						dvdz = (vDn[n] - v) / dzFDn
					case k == nz-1:
						wBar = 0.5 * (wJS[n] + wJ[n])
						dvdz = (v - vUp[n]) / dzFUp
					default:
						wBar = 0.25 * (wJS[n] + wJ[n] + wJSDn[n] + wJDn[n])
						dvdz = (vDn[n] - vUp[n]) / dzMid
					}
					adv += wBar * dvdz
				}
				visc := ah * ((vrE[n]-2*v+vr[n-1])/dxdx +
					(vrN[n]-2*v+vrS[n])/dydy)
				if nz > 1 {
					visc += vertLapRow(av, vUp, vr, vDn, n, k, nz, dzFUp, dzFDn, dzK)
				}
				tend := -adv - f*uBar + visc
				if botDrag > 0 && bottomAt(hcr, hcrDn, n, k, nz) {
					tend -= botDrag * v
				}
				gvr[n] = tend
			}
		}
	}
	c.AddPS(ComputeGMomentumOps(g))
}

// vertLapRow is the vertical friction term with free-slip at the top
// and bottom boundaries, over hoisted level rows (at a boundary the
// matching guard skips the clamped upR or dnR).
func vertLapRow(av float64, upR, curR, dnR []float64, n, k, nz int, dzFUp, dzFDn, dzK float64) float64 {
	if av == 0 {
		return 0
	}
	up, dn := 0.0, 0.0
	if k > 0 {
		up = (upR[n] - curR[n]) / dzFUp
	}
	if k < nz-1 {
		dn = (curR[n] - dnR[n]) / dzFDn
	}
	return av * (up - dn) / dzK
}

// bottomAt reports whether column cell n of the hoisted HFacC rows is
// the deepest wet cell of its column.
func bottomAt(hcr, hcrDn []float64, n, k, nz int) bool {
	if hcr[n] == 0 {
		return false
	}
	return k == nz-1 || hcrDn[n] == 0
}

// StepMomentum applies AB2 to the momentum tendencies and adds the
// hydrostatic pressure gradient, producing the provisional velocities
// u*, v* (in place) that the DS phase projects.  Faces up to index n
// inclusive are updated so tile-edge divergences are complete.
func StepMomentum(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := 1
	aNow, aPrev := s.abCoeffs(p.ABEps)
	now, prev := s.cur, 1-s.cur
	dt := p.Dt
	for k := 0; k < g.NZ; k++ {
		for j := -m; j < g.NY+m; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			hw := g.HFacW.Row(j, k)
			hs := g.HFacS.Row(j, k)
			ur := s.U.Row(j, k)
			vr := s.V.Row(j, k)
			guN := s.gu[now].Row(j, k)
			guP := s.gu[prev].Row(j, k)
			gvN := s.gv[now].Row(j, k)
			gvP := s.gv[prev].Row(j, k)
			phr := s.Phy.Row(j, k)
			phrS := s.Phy.Row(j-1, k)
			for i := -m; i < g.NX+m+1; i++ {
				n := i + h
				if hw[n] > 0 {
					gStar := aNow*guN[n] + aPrev*guP[n]
					dpdx := (phr[n] - phr[n-1]) / dx
					ur[n] += dt * (gStar - dpdx)
				} else {
					ur[n] = 0
				}
				if hs[n] > 0 {
					gStar := aNow*gvN[n] + aPrev*gvP[n]
					dpdy := (phr[n] - phrS[n]) / dy
					vr[n] += dt * (gStar - dpdy)
				} else {
					vr[n] = 0
				}
			}
		}
	}
	c.AddPS(StepMomentumOps(g))
}

// Continuity diagnoses w from the non-divergence constraint (paper
// eq. 2), integrating the horizontal divergence downward from the
// rigid lid (w = 0 at k = 0).
func Continuity(g *grid.Local, s *State, c *Counters) {
	const h = Halo
	L := g.NX + h // rows and their east views are cut as in ComputeGTracers
	acc := s.accRow[:L]
	for j := 0; j < g.NY; j++ {
		dx, dy := g.DXC(j), g.DYC(j)
		area := dx * dy
		dxsS, dxsN := g.DXS(j), g.DXS(j+1)
		clear(s.W.Row(j, 0)[h:L]) // rigid lid
		clear(acc)
		// k-outer with a per-column accumulator row: each cell still sees
		// its column's divergences in ascending-k order, so the downward
		// integral accumulates in the seed order and stays bit-identical.
		for k := 0; k < g.NZ; k++ {
			dzk := g.DZ[k]
			ur, urE := s.U.Row(j, k)[:L], s.U.Row(j, k)[1:L+1]
			hw, hwE := g.HFacW.Row(j, k)[:L], g.HFacW.Row(j, k)[1:L+1]
			vr := s.V.Row(j, k)[:L]
			vrN := s.V.Row(j+1, k)[:L]
			hsr := g.HFacS.Row(j, k)[:L]
			hsrN := g.HFacS.Row(j+1, k)[:L]
			// The last level has no w below it: its balance lands in
			// the accumulator and is dropped.
			wNext := acc
			if k < g.NZ-1 {
				wNext = s.W.Row(j, k+1)
			}
			wNext = wNext[:L]
			for n := h; n < L; n++ {
				div := dy*dzk*(urE[n]*hwE[n]-ur[n]*hw[n]) +
					dzk*(dxsN*vrN[n]*hsrN[n]-dxsS*vr[n]*hsr[n])
				// With k increasing downward and w positive in +k, the
				// cell's mass balance is w(k+1) = w(k) - outflux/area.
				acc[n] -= div / area
				wNext[n] = acc[n]
			}
		}
	}
	c.AddPS(ContinuityOps(g))
}

// ConvectiveAdjust removes static instability by mixing adjacent
// levels where buoyancy increases downward, sweeping each column until
// stable.  This stands in for the convection scheme of the paper's
// intermediate-complexity physics.
//
// Buoyancy is evaluated a row at a time for all levels and again only
// for the levels a mix rewrites.  ops still counts two evaluations for
// every pair of levels compared: it is the modelled kernel's work and
// feeds virtual time (see the *Ops helpers).
func ConvectiveAdjust(g *grid.Local, s *State, p *Params, c *Counters) {
	if !p.ImplicitConvection {
		return
	}
	const h = Halo
	m := Halo - 1
	nz, stride := g.NZ, s.Theta.Stride()
	first, end := h-m, g.NX+m+h // the swept columns, as row indices
	th, sa, hf, b := s.Theta.Raw(), s.Salt.Raw(), g.HFacC.Raw(), s.buoy
	plane := len(th) / nz
	pairOps := int64(2*p.EOS.FlopsPerCell()) + 1
	var ops int64
	for j := -m; j < g.NY+m; j++ {
		for k := 0; k < nz; k++ {
			p.EOS.BuoyancyRow(b[k*stride+first:k*stride+end],
				s.Theta.Row(j, k)[first:end], s.Salt.Row(j, k)[first:end], k)
		}
		row := s.Theta.Idx(-h, j, 0)
		for n := first; n < end; n++ {
			c0 := row + n // the column's surface cell; level k is k planes on
			for k := 0; k < nz-1; k++ {
				if hf[c0+k*plane] == 0 || hf[c0+(k+1)*plane] == 0 {
					continue
				}
				ops += pairOps
				if unstable := b[(k+1)*stride+n] > b[k*stride+n]; !unstable {
					continue
				}
				// Homogenise the pair, volume weighted, then grow the
				// mixed region upward until the column above it is
				// stable (or land).  The whole region becomes exactly
				// uniform, so a mixed block is internally stable and
				// the scheme terminates; the sweep continues below it.
				for lo, hi := k, k+1; ; lo-- {
					var wSum, tSum, sSum float64
					for l := lo; l <= hi; l++ {
						w := g.DZ[l] * hf[c0+l*plane]
						wSum += w
						tSum += w * th[c0+l*plane]
						sSum += w * sa[c0+l*plane]
					}
					tm, sm := tSum/wSum, sSum/wSum
					for l := lo; l <= hi; l++ {
						th[c0+l*plane], sa[c0+l*plane] = tm, sm
						b[l*stride+n] = p.EOS.Buoyancy(tm, sm, l)
					}
					ops += int64(hi-lo+1) * 8
					if lo == 0 || hf[c0+(lo-1)*plane] == 0 {
						break
					}
					ops += pairOps
					if unstable := b[lo*stride+n] > b[(lo-1)*stride+n]; !unstable {
						break
					}
				}
			}
		}
	}
	c.AddPS(ops)
}
