// Package solver implements the Diagnostic Step (DS) of the GCM
// algorithm (paper Fig. 6): the two-dimensional elliptic equation for
// the surface pressure,
//
//	div_h( H grad_h ps ) = div_h( U* ) / dt,
//
// solved with a preconditioned conjugate-gradient iteration as in
// Marshall et al. (1997).  Each iteration performs exactly two halo
// exchanges on 2-D fields and two global sums — the communication
// pattern whose costs (texchxy, tgsum) dominate the fine-grain DS phase
// in the paper's performance model (eqs. 7-10).
//
// The operator's transmissibilities use the face-integrated fluid
// depths of package grid, so the projection is exactly consistent with
// the finite-volume divergence: after the velocity correction the
// depth-integrated flow is non-divergent to solver tolerance.
package solver

import (
	"math"

	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/reduce"
	"hyades/internal/gcm/tile"
)

// Precond selects the preconditioner.
type Precond int

// The available preconditioners.
const (
	// PrecondSSOR is the default: one symmetric Gauss-Seidel sweep over
	// the tile (block-Jacobi across tiles, so no halo traffic).  It
	// brings the iteration count of the production grid near the
	// paper's Ni ~ 60.
	PrecondSSOR Precond = iota
	// PrecondJacobi is plain diagonal scaling.
	PrecondJacobi
)

// Solver holds the operator and work arrays for one tile.
type Solver struct {
	G *grid.Local
	H *tile.Halo

	Tol     float64 // relative residual-norm reduction target
	MaxIter int
	Pre     Precond

	// tW/tS are the west/south face transmissibilities; diag is the
	// operator diagonal (also the Jacobi preconditioner).
	tW, tS, diag *field.F2
	r, z, p, q   *field.F2
	// rhs is the reusable right-hand-side buffer BuildRHS returns —
	// scratch, not state, so one allocation serves every step.
	rhs *field.F2

	// LastIters and LastResidual report the most recent solve.
	LastIters    int
	LastResidual float64
	// TotalIters accumulates across solves (mean Ni diagnostics).
	TotalIters int64
	Solves     int64

	// Pre-bound phase closures for the CG loop, created once so the
	// steady-state Solve path allocates nothing.  Their free variables
	// (the solve target, right-hand side, counters and the scalar CG
	// coefficients) are threaded through the fields below.
	sx, sb      *field.F2
	sc          *kernel.Counters
	alpha, beta float64
	pq          float64 // local p.q, accumulated by fnApplyP's sweep
	fnInit      func()
	fnApplyP    func()
	fnAxpy      func()
	fnPUpd      func()

	// Per-row column-integral accumulators for BuildRHS.
	uw, ue, vs, vn []float64
}

// New builds the solver for a tile.
func New(g *grid.Local, h *tile.Halo, tol float64, maxIter int) *Solver {
	sv := &Solver{G: g, H: h, Tol: tol, MaxIter: maxIter}
	nx, ny := g.NX, g.NY
	sv.tW = field.NewF2(nx, ny, 1)
	sv.tS = field.NewF2(nx, ny, 1)
	sv.diag = field.NewF2(nx, ny, 1)
	sv.r = field.NewF2(nx, ny, 1)
	sv.z = field.NewF2(nx, ny, 1)
	sv.p = field.NewF2(nx, ny, 1)
	sv.q = field.NewF2(nx, ny, 1)
	sv.rhs = field.NewF2(nx, ny, 1)
	// Transmissibilities on faces [0..nx] x [0..ny] (one halo row).
	for j := -1; j <= ny; j++ {
		dx, dy := g.DXC(j), g.DYC(j)
		for i := -1; i <= nx; i++ {
			sv.tW.Set(i, j, g.DepthW.At(i, j)*dy/dx)
			sv.tS.Set(i, j, g.DepthS.At(i, j)*g.DXS(j)/dy)
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			d := sv.tW.At(i, j) + sv.tW.At(i+1, j) + sv.tS.At(i, j) + sv.tS.At(i, j+1)
			sv.diag.Set(i, j, d)
		}
	}
	sv.uw = make([]float64, nx)
	sv.ue = make([]float64, nx)
	sv.vs = make([]float64, nx)
	sv.vn = make([]float64, nx)
	sv.bindPhases()
	return sv
}

// bindPhases builds the CG loop's Exec closures once.  Each captures
// only sv; the per-solve operands arrive through the sx/sb/sc/alpha/
// beta fields.
func (sv *Solver) bindPhases() {
	sv.fnInit = func() {
		g, x, b, c := sv.G, sv.sx, sv.sb, sv.sc
		sv.Apply(x, sv.q, c)
		hb := b.H
		for j := 0; j < g.NY; j++ {
			dr := sv.diag.Row(j)
			rr := sv.r.Row(j)
			br := b.Row(j)
			qr := sv.q.Row(j)
			for i := 0; i < g.NX; i++ {
				if dr[i+1] == 0 {
					rr[i+1] = 0
					continue
				}
				rr[i+1] = br[i+hb] - qr[i+1]
			}
		}
		c.AddDS(int64(g.NX * g.NY))
		sv.precondition(sv.r, sv.z, c)
		sv.p.CopyFrom(sv.z)
	}
	sv.fnApplyP = func() { sv.pq = sv.Apply(sv.p, sv.q, sv.sc) }
	sv.fnAxpy = func() {
		g, x, c, alpha := sv.G, sv.sx, sv.sc, sv.alpha
		hx := x.H
		for j := 0; j < g.NY; j++ {
			xr := x.Row(j)
			pr := sv.p.Row(j)
			rr := sv.r.Row(j)
			qr := sv.q.Row(j)
			for i := 0; i < g.NX; i++ {
				xr[i+hx] += alpha * pr[i+1]
				rr[i+1] += -alpha * qr[i+1]
			}
		}
		c.AddDS(int64(g.NX*g.NY) * 4)
		sv.precondition(sv.r, sv.z, c)
	}
	sv.fnPUpd = func() {
		g, c, beta := sv.G, sv.sc, sv.beta
		for j := 0; j < g.NY; j++ {
			pr := sv.p.Row(j)
			zr := sv.z.Row(j)
			for i := 0; i < g.NX; i++ {
				pr[i+1] = zr[i+1] + beta*pr[i+1]
			}
		}
		c.AddDS(int64(g.NX*g.NY) * 2)
	}
}

// The *Ops helpers mirror each local routine's exact flop accounting;
// the parallel driver uses them to fix an offloaded segment's modeled
// duration at submission time (see exec).

// BuildRHSOps returns BuildRHS's flop count.
func BuildRHSOps(g *grid.Local) int64 {
	return int64(g.NX*g.NY) * int64(12*g.NZ+6)
}

// ApplyOps returns Apply's flop count.
func ApplyOps(g *grid.Local) int64 {
	return int64(g.NX*g.NY) * 12
}

// CorrectVelocitiesOps returns CorrectVelocities' flop count.
func CorrectVelocitiesOps(g *grid.Local) int64 {
	return int64(g.NZ*(g.NY+1)*(g.NX+1)) * 8
}

// precondOps returns the selected preconditioner's flop count.
func (sv *Solver) precondOps() int64 {
	if sv.Pre == PrecondJacobi {
		return int64(sv.G.NX * sv.G.NY)
	}
	return int64(sv.G.NX*sv.G.NY) * 10
}

// exec runs a local solver segment — pure per-tile compute of known
// flop count — off the DES baton through the endpoint's Exec, with the
// charge hooks suspended (the time is charged up front instead).
// Without a time converter (pure numerics runs) the segment runs
// inline under whatever hooks are installed.
func (sv *Solver) exec(c *kernel.Counters, flops int64, fn func()) {
	if c.TimeDS == nil {
		fn()
		return
	}
	ps, ds := c.SuspendCharges()
	sv.H.EP.Exec(c.TimeDS(flops), fn)
	c.RestoreCharges(ps, ds)
}

// BuildRHS computes div(U*)/dt from the provisional velocities into a
// reused scratch field (valid until the next BuildRHS call).  Land
// columns get zero.
func (sv *Solver) BuildRHS(s *kernel.State, dt float64, c *kernel.Counters) *field.F2 {
	g := sv.G
	b := sv.rhs
	b.Fill(0)
	hu := s.U.H
	for j := 0; j < g.NY; j++ {
		dy := g.DYC(j)
		uw, ue, vs, vn := sv.uw, sv.ue, sv.vs, sv.vn
		for i := 0; i < g.NX; i++ {
			uw[i], ue[i], vs[i], vn[i] = 0, 0, 0, 0
		}
		// Column integrals with the k-loop hoisted outward: each cell
		// still accumulates its terms in ascending-k order, so the sums
		// are bit-identical to the per-cell loop.  Dry columns are
		// overcomputed and discarded below.
		for k := 0; k < g.NZ; k++ {
			dz := g.DZ[k]
			ur := s.U.Row(j, k)
			hw := g.HFacW.Row(j, k)
			vr := s.V.Row(j, k)
			vrN := s.V.Row(j+1, k)
			hs := g.HFacS.Row(j, k)
			hsN := g.HFacS.Row(j+1, k)
			for i := 0; i < g.NX; i++ {
				uw[i] += ur[i+hu] * hw[i+hu] * dz
				ue[i] += ur[i+1+hu] * hw[i+1+hu] * dz
				vs[i] += vr[i+hu] * hs[i+hu] * dz
				vn[i] += vrN[i+hu] * hsN[i+hu] * dz
			}
		}
		br := b.Row(j)
		dp := sv.G.Depth.Row(j)
		hd := sv.G.Depth.H
		dxsN, dxs := g.DXS(j+1), g.DXS(j)
		for i := 0; i < g.NX; i++ {
			if dp[i+hd] == 0 {
				continue
			}
			br[i+1] = (dy*(ue[i]-uw[i]) + dxsN*vn[i] - dxs*vs[i]) / dt
		}
	}
	c.AddDS(int64(g.NX*g.NY) * int64(12*g.NZ+6))
	return b
}

// Apply computes q = A(p) on the interior; p's halo must be current.
// Exposed for verification against manufactured solutions.  It returns
// the local p.q, accumulated in reduce.Dot2's canonical order (j outer,
// i inner, one scalar): fused here the add chain hides under the
// stencil's independent work.  The dot's flops are the caller's charge.
func (sv *Solver) Apply(p, q *field.F2, c *kernel.Counters) float64 {
	g := sv.G
	hp, hq := p.H, q.H
	pq := 0.0
	for j := 0; j < g.NY; j++ {
		tw := sv.tW.Row(j)
		ts := sv.tS.Row(j)
		tsN := sv.tS.Row(j + 1)
		pS := p.Row(j - 1)
		pr := p.Row(j)
		pN := p.Row(j + 1)
		qr := q.Row(j)
		for i := 0; i < g.NX; i++ {
			pc := pr[i+hp]
			v := tw[i+1]*(pr[i-1+hp]-pc) +
				tw[i+2]*(pr[i+1+hp]-pc) +
				ts[i+1]*(pS[i+hp]-pc) +
				tsN[i+1]*(pN[i+hp]-pc)
			qr[i+hq] = v
			pq += pc * v
		}
	}
	c.AddDS(ApplyOps(g))
	return pq
}

// gsum charges a local inner product over the tile and returns its
// global sum.
func (sv *Solver) gsum(local float64, c *kernel.Counters) float64 {
	c.AddDS(int64(sv.G.NX*sv.G.NY) * 2)
	return sv.H.EP.GlobalSum(local)
}

// Solve runs preconditioned CG for A(x) = b, warm-starting from the
// incoming x (the previous step's pressure), and leaves the solution in
// x with a current halo.  It returns the iteration count.
func (sv *Solver) Solve(x, b *field.F2, c *kernel.Counters) int {
	g := sv.G
	sv.sx, sv.sb, sv.sc = x, b, c
	// r = b - A(x)
	sv.H.Update2(x, 1)
	sv.exec(c, ApplyOps(g)+int64(g.NX*g.NY)+sv.precondOps(), sv.fnInit)
	rz := sv.gsum(reduce.Dot2(sv.r, sv.z), c)
	rz0 := rz
	iters := 0
	for ; iters < sv.MaxIter; iters++ {
		if rz == 0 || math.Abs(rz) <= sv.Tol*sv.Tol*math.Abs(rz0) {
			break
		}
		// The paper's DS phase applies the exchange primitive to two
		// fields per iteration (§4): the search direction ahead of the
		// operator, and the residual ahead of the (stencil-capable)
		// preconditioner slot.
		sv.H.Update2(sv.p, 1)
		sv.H.Update2(sv.r, 1)
		sv.exec(c, ApplyOps(g), sv.fnApplyP)
		pq := sv.gsum(sv.pq, c) // global sum 1; p.q rode the operator sweep
		if pq == 0 {
			break
		}
		sv.alpha = rz / pq
		sv.exec(c, int64(g.NX*g.NY)*4+sv.precondOps(), sv.fnAxpy)
		rzNew := sv.gsum(reduce.Dot2(sv.r, sv.z), c) // global sum 2
		sv.beta = rzNew / rz
		rz = rzNew
		sv.exec(c, int64(g.NX*g.NY)*2, sv.fnPUpd)
	}
	sv.H.Update2(x, 1)
	sv.sx, sv.sb, sv.sc = nil, nil, nil
	sv.LastIters = iters
	sv.LastResidual = math.Sqrt(math.Abs(rz))
	sv.TotalIters += int64(iters)
	sv.Solves++
	return iters
}

// precondition applies the selected preconditioner z = M^-1 r.
func (sv *Solver) precondition(r, z *field.F2, c *kernel.Counters) {
	g := sv.G
	hr, hz := r.H, z.H
	if sv.Pre == PrecondJacobi {
		for j := 0; j < g.NY; j++ {
			dr := sv.diag.Row(j)
			rr := r.Row(j)
			zr := z.Row(j)
			for i := 0; i < g.NX; i++ {
				d := dr[i+1]
				if d == 0 {
					zr[i+hz] = 0
					continue
				}
				zr[i+hz] = rr[i+hr] / d
			}
		}
		c.AddDS(int64(g.NX * g.NY))
		return
	}
	// Symmetric Gauss-Seidel sweep of the positive-definite mirror
	// operator D - L - U, with off-tile couplings dropped:
	// M = (D-L) D^-1 (D-U).  Forward solve, diagonal scale, backward
	// solve; z stays zero on land (d == 0).
	sv.sweep(r, z, false)
	sv.sweep(r, z, true)
	c.AddDS(int64(g.NX*g.NY) * 10)
}

// ssorBand is the number of rows a Gauss-Seidel sweep advances together
// (DESIGN.md, "Latency-bound kernels"): a measured constant, not a knob.
const ssorBand = 4

// sweep runs one half of the SSOR preconditioner in sweep coordinates
// (a, b): the cell itself on the forward half, its mirror image
// (NX-1-a, NY-1-b) on the backward half, so that either way a cell
// depends on (a-1, b) and (a, b-1).  Rows advance ssorBand at a time,
// row b+q one column behind row b+q-1: every cell still finds both
// neighbours finished and does the arithmetic of the row-by-row sweep
// in the same order, but ssorBand divide chains are in flight instead
// of one.  Both neighbours were computed one step earlier, so they are
// carried in p0..p3 rather than reloaded; only the band's first row
// reads the band below.
func (sv *Solver) sweep(r, z *field.F2, back bool) {
	if r.H != z.H {
		panic("solver: sweep needs r and z of one shape")
	}
	nx, ny := sv.G.NX, sv.G.NY
	// Sweep cell (a, b) is element origin + sg*(b*stride + a) of the
	// coefficient fields (k) and of r and z (l).  tw and ts are re-based
	// on the face the sweep couples through, and slices of one shape
	// are cut to one length so one bounds check serves them all.
	dd, tw, ts, rd, zd := sv.diag.Raw(), sv.tW.Raw(), sv.tS.Raw(), r.Raw(), z.Raw()
	os, zs := sv.diag.Stride(), z.Stride()
	o0, z0, sg := sv.diag.Idx(0, 0), z.Idx(0, 0), 1
	if back {
		o0, z0, sg = sv.diag.Idx(nx-1, ny-1), z.Idx(nx-1, ny-1), -1
		tw, ts = tw[1:], ts[os:]
	}
	dd, tw, ts = dd[:len(dd)-os], tw[:len(dd)-os], ts[:len(dd)-os]
	rd = rd[:len(zd)]
	do, dz := sg*(os-1), sg*(zs-1)
	for b := 0; b < ny; b += ssorBand {
		n := min(ssorBand, ny-b) // rows in this band
		var p0, p1, p2, p3 float64
		for t := 0; t < nx+n-1; t++ {
			// Row q is at column t-q, if that is on the tile; the last
			// row goes first so that each p is overwritten only after
			// the row above has read it.
			k, l := o0+sg*(b*os+t)+3*do, z0+sg*(b*zs+t)+3*dz
			if a := t - 3; n > 3 && uint(a) < uint(nx) {
				p3 = gsCell(back, a > 0, true, dd[k], rd[l], zd[l], tw[k], p3, ts[k], p2)
				zd[l] = p3
			}
			k, l = k-do, l-dz
			if a := t - 2; n > 2 && uint(a) < uint(nx) {
				p2 = gsCell(back, a > 0, true, dd[k], rd[l], zd[l], tw[k], p2, ts[k], p1)
				zd[l] = p2
			}
			k, l = k-do, l-dz
			if a := t - 1; n > 1 && uint(a) < uint(nx) {
				p1 = gsCell(back, a > 0, true, dd[k], rd[l], zd[l], tw[k], p1, ts[k], p0)
				zd[l] = p1
			}
			k, l = k-do, l-dz
			if t < nx {
				zS := 0.0
				if b > 0 {
					zS = zd[l-sg*zs]
				}
				p0 = gsCell(back, t > 0, b > 0, dd[k], rd[l], zd[l], tw[k], p0, ts[k], zS)
				zd[l] = p0
			}
		}
	}
}

// gsCell is one Gauss-Seidel cell: z = (r + tW zW + tS zS)/d forward,
// z += (0 + tE zE + tN zN)/d backward; zero or untouched on land.  The
// coupling along the row (t1 z1) and across rows (t2 z2) is dropped —
// not added as zero, which would lose a -0 — where the neighbour is off
// the tile.
func gsCell(back, cols, rows bool, d, r, z, t1, z1, t2, z2 float64) float64 {
	if d == 0 {
		if back {
			return z
		}
		return 0
	}
	v := r
	if back {
		v = 0.0
	}
	if cols {
		v += t1 * z1
	}
	if rows {
		v += t2 * z2
	}
	if back {
		return z + v/d
	}
	return v / d
}

// CorrectVelocities subtracts the surface-pressure gradient from the
// provisional velocities on all faces up to index n, completing the
// projection (paper eq. 1's grad ps term).  ps must have a current
// halo (Solve leaves it so).
func CorrectVelocities(g *grid.Local, s *kernel.State, dt float64, c *kernel.Counters) {
	h := s.U.H
	hp := s.Ps.H
	for k := 0; k < g.NZ; k++ {
		for j := 0; j <= g.NY; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			hw := g.HFacW.Row(j, k)
			hs := g.HFacS.Row(j, k)
			ur := s.U.Row(j, k)
			vr := s.V.Row(j, k)
			ps := s.Ps.Row(j)
			psS := s.Ps.Row(j - 1)
			for i := 0; i <= g.NX; i++ {
				if hw[i+h] > 0 {
					ur[i+h] += -dt * (ps[i+hp] - ps[i-1+hp]) / dx
				}
				if hs[i+h] > 0 {
					vr[i+h] += -dt * (ps[i+hp] - psS[i+hp]) / dy
				}
			}
		}
	}
	c.AddDS(int64(g.NZ*(g.NY+1)*(g.NX+1)) * 8)
}

// MeanIters returns the average CG iteration count per solve (the
// paper's Ni).
func (sv *Solver) MeanIters() float64 {
	if sv.Solves == 0 {
		return 0
	}
	return float64(sv.TotalIters) / float64(sv.Solves)
}
