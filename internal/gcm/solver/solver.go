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

// interior returns row j of f cut to n cells from column i0: element i
// is cell i0+i.  A cell loop indexes rows of its own length only, so the
// compiler proves every index from the loop bound; a neighbour is a
// view shifted by one (interior(f, j, -1, n)[i] is cell i's west).
func interior(f *field.F2, j, i0, n int) []float64 { return f.Row(j)[f.H+i0:][:n] }

// bindPhases binds the CG loop's Exec phases once, as method values
// capturing only sv; the per-solve operands arrive through the
// sx/sb/sc/alpha/beta fields.  (Func literals here were cloned into New
// when New inlined this, and the clones kept their range checks.)
func (sv *Solver) bindPhases() {
	sv.fnInit = sv.initResidual
	sv.fnApplyP = func() { sv.pq = sv.Apply(sv.p, sv.q, sv.sc) }
	sv.fnAxpy = sv.axpy
	sv.fnPUpd = sv.updateP
}

// initResidual sets r = b - A(x) on wet cells, zero on land, then
// z = M^-1 r and p = z.
func (sv *Solver) initResidual() {
	g, x, b, c := sv.G, sv.sx, sv.sb, sv.sc
	sv.Apply(x, sv.q, c)
	nx := g.NX
	for j := 0; j < g.NY; j++ {
		dr := interior(sv.diag, j, 0, nx)
		rr := interior(sv.r, j, 0, nx)
		br := interior(b, j, 0, nx)
		qr := interior(sv.q, j, 0, nx)
		for i, d := range dr {
			if d == 0 {
				rr[i] = 0
				continue
			}
			rr[i] = br[i] - qr[i]
		}
	}
	c.AddDS(int64(g.NX * g.NY))
	sv.precondition(sv.r, sv.z, c)
	sv.p.CopyFrom(sv.z)
}

// axpy advances x += alpha p and r -= alpha q, then z = M^-1 r.
func (sv *Solver) axpy() {
	g, x, c, alpha := sv.G, sv.sx, sv.sc, sv.alpha
	nx := g.NX
	for j := 0; j < g.NY; j++ {
		xr := interior(x, j, 0, nx)
		pr := interior(sv.p, j, 0, nx)
		rr := interior(sv.r, j, 0, nx)
		qr := interior(sv.q, j, 0, nx)
		for i := range xr {
			xr[i] += alpha * pr[i]
			rr[i] += -alpha * qr[i]
		}
	}
	c.AddDS(int64(g.NX*g.NY) * 4)
	sv.precondition(sv.r, sv.z, c)
}

// updateP sets the next search direction p = z + beta p.
func (sv *Solver) updateP() {
	g, c, beta := sv.G, sv.sc, sv.beta
	nx := g.NX
	for j := 0; j < g.NY; j++ {
		pr := interior(sv.p, j, 0, nx)
		zr := interior(sv.z, j, 0, nx)
		for i := range pr {
			pr[i] = zr[i] + beta*pr[i]
		}
	}
	c.AddDS(int64(g.NX*g.NY) * 2)
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
// flop count — through the endpoint's Exec, its time charged up front.
func (sv *Solver) exec(flops int64, fn func()) {
	sv.H.EP.Exec(kernel.DSTime(flops), fn)
}

// BuildRHS computes div(U*)/dt from the provisional velocities into a
// reused scratch field (valid until the next BuildRHS call).  Land
// columns get zero.
func (sv *Solver) BuildRHS(s *kernel.State, dt float64, c *kernel.Counters) *field.F2 {
	g := sv.G
	b := sv.rhs
	b.Fill(0)
	nx, hu := g.NX, s.U.H
	uw, ue, vs, vn := sv.uw[:nx], sv.ue[:nx], sv.vs[:nx], sv.vn[:nx]
	for j := 0; j < g.NY; j++ {
		dy := g.DYC(j)
		clear(uw)
		clear(ue)
		clear(vs)
		clear(vn)
		// Column integrals with the k-loop hoisted outward: each cell
		// still accumulates its terms in ascending-k order, so the sums
		// are bit-identical to the per-cell loop.  Dry columns are
		// overcomputed and discarded below.  The masks share the
		// velocities' halo.
		for k := 0; k < g.NZ; k++ {
			dz := g.DZ[k]
			ur, hw := s.U.Row(j, k)[hu:], g.HFacW.Row(j, k)[hu:]
			uW, uE := ur[:nx], ur[1:][:nx]
			hW, hE := hw[:nx], hw[1:][:nx]
			vS := s.V.Row(j, k)[hu:][:nx]
			vN := s.V.Row(j+1, k)[hu:][:nx]
			hS := g.HFacS.Row(j, k)[hu:][:nx]
			hN := g.HFacS.Row(j+1, k)[hu:][:nx]
			for i := range uw {
				uw[i] += uW[i] * hW[i] * dz
				ue[i] += uE[i] * hE[i] * dz
				vs[i] += vS[i] * hS[i] * dz
				vn[i] += vN[i] * hN[i] * dz
			}
		}
		br := interior(b, j, 0, nx)
		dp := interior(g.Depth, j, 0, nx)
		dxsN, dxs := g.DXS(j+1), g.DXS(j)
		for i, d := range dp {
			if d == 0 {
				continue
			}
			br[i] = (dy*(ue[i]-uw[i]) + dxsN*vn[i] - dxs*vs[i]) / dt
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
	nx := g.NX
	pq := 0.0
	for j := 0; j < g.NY; j++ {
		tW, tE := interior(sv.tW, j, 0, nx), interior(sv.tW, j, 1, nx)
		tS, tN := interior(sv.tS, j, 0, nx), interior(sv.tS, j+1, 0, nx)
		pW, pC, pE := interior(p, j, -1, nx), interior(p, j, 0, nx), interior(p, j, 1, nx)
		pS, pN := interior(p, j-1, 0, nx), interior(p, j+1, 0, nx)
		qr := interior(q, j, 0, nx)
		for i, pc := range pC {
			v := tW[i]*(pW[i]-pc) +
				tE[i]*(pE[i]-pc) +
				tS[i]*(pS[i]-pc) +
				tN[i]*(pN[i]-pc)
			qr[i] = v
			pq += pc * v
		}
	}
	c.AddDS(ApplyOps(g))
	return pq
}

// gsum charges a local inner product over the tile and returns its
// global sum.
func (sv *Solver) gsum(local float64, c *kernel.Counters) float64 {
	f := int64(sv.G.NX*sv.G.NY) * 2
	c.AddDS(f)
	sv.H.EP.Busy(kernel.DSTime(f))
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
	sv.exec(ApplyOps(g)+int64(g.NX*g.NY)+sv.precondOps(), sv.fnInit)
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
		sv.exec(ApplyOps(g), sv.fnApplyP)
		pq := sv.gsum(sv.pq, c) // global sum 1; p.q rode the operator sweep
		if pq == 0 {
			break
		}
		sv.alpha = rz / pq
		sv.exec(int64(g.NX*g.NY)*4+sv.precondOps(), sv.fnAxpy)
		rzNew := sv.gsum(reduce.Dot2(sv.r, sv.z), c) // global sum 2
		sv.beta = rzNew / rz
		rz = rzNew
		sv.exec(int64(g.NX*g.NY)*2, sv.fnPUpd)
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
	if sv.Pre == PrecondJacobi {
		for j := 0; j < g.NY; j++ {
			dr := interior(sv.diag, j, 0, g.NX)
			rr := interior(r, j, 0, g.NX)
			zr := interior(z, j, 0, g.NX)
			for i, d := range dr {
				if d == 0 {
					zr[i] = 0
					continue
				}
				zr[i] = rr[i] / d
			}
		}
		c.AddDS(int64(g.NX * g.NY))
		return
	}
	// Symmetric Gauss-Seidel sweep of the positive-definite mirror
	// operator D - L - U, with off-tile couplings dropped:
	// M = (D-L) D^-1 (D-U).  Forward solve, diagonal scale, backward
	// solve; z stays zero on land (d == 0).
	sv.sweepForward(r, z)
	sv.sweepBackward(z)
	c.AddDS(int64(g.NX*g.NY) * 10)
}

// ssorBand is the number of rows a Gauss-Seidel sweep advances together
// (DESIGN.md, "Latency-bound kernels"): a measured constant, not a knob.
const ssorBand = 4

// sweepForward runs the forward half of the SSOR preconditioner from the
// south-west corner: a cell depends on its west and south neighbours.
// Rows advance ssorBand at a time, row b+q one column behind row b+q-1:
// every cell still finds both neighbours finished and does the
// arithmetic of the row-by-row sweep in the same order, but ssorBand
// divide chains are in flight instead of one.  Both neighbours were
// computed one step earlier, so they are carried in p0..p3 rather than
// reloaded; only the band's first row reads the band below.  Every row
// is cut to the tile's NX cells, so the test that skips a row while its
// column is off the tile also proves the row's indices.
func (sv *Solver) sweepForward(r, z *field.F2) {
	nx, ny := sv.G.NX, sv.G.NY
	for b := 0; b < ny; b += ssorBand {
		n := min(ssorBand, ny-b) // rows in this band
		// Row q of the band is tile row b+q; a row past the tile is cut
		// from the last one and never visited.
		j1, j2, j3 := min(b+1, ny-1), min(b+2, ny-1), min(b+3, ny-1)
		d0, d1, d2, d3 := interior(sv.diag, b, 0, nx), interior(sv.diag, j1, 0, nx), interior(sv.diag, j2, 0, nx), interior(sv.diag, j3, 0, nx)
		w0, w1, w2, w3 := interior(sv.tW, b, 0, nx), interior(sv.tW, j1, 0, nx), interior(sv.tW, j2, 0, nx), interior(sv.tW, j3, 0, nx)
		s0, s1, s2, s3 := interior(sv.tS, b, 0, nx), interior(sv.tS, j1, 0, nx), interior(sv.tS, j2, 0, nx), interior(sv.tS, j3, 0, nx)
		r0, r1, r2, r3 := interior(r, b, 0, nx), interior(r, j1, 0, nx), interior(r, j2, 0, nx), interior(r, j3, 0, nx)
		z0, z1, z2, z3 := interior(z, b, 0, nx), interior(z, j1, 0, nx), interior(z, j2, 0, nx), interior(z, j3, 0, nx)
		zS := interior(z, max(b-1, 0), 0, nx) // the row below the band, read only when there is one
		var p0, p1, p2, p3 float64
		for t := 0; t < nx+n-1; t++ {
			// Row q is at column t-q, if that is on the tile; the last
			// row goes first so that each p is overwritten only after
			// the row above has read it.
			if a := t - 3; n > 3 && a >= 0 && a < nx {
				p3 = gsForward(a > 0, true, d3[a], r3[a], w3[a], p3, s3[a], p2)
				z3[a] = p3
			}
			if a := t - 2; n > 2 && a >= 0 && a < nx {
				p2 = gsForward(a > 0, true, d2[a], r2[a], w2[a], p2, s2[a], p1)
				z2[a] = p2
			}
			if a := t - 1; n > 1 && a >= 0 && a < nx {
				p1 = gsForward(a > 0, true, d1[a], r1[a], w1[a], p1, s1[a], p0)
				z1[a] = p1
			}
			if t < nx {
				south := 0.0
				if b > 0 {
					south = zS[t]
				}
				p0 = gsForward(t > 0, b > 0, d0[t], r0[t], w0[t], p0, s0[t], south)
				z0[t] = p0
			}
		}
	}
}

// sweepBackward runs the backward half the same way from the north-east
// corner: band row q is tile row NY-1-b-q, a cell depends on its east
// and north neighbours, and row q trails row q-1 by one column (it is at
// column u+q while row 0 is at u).
func (sv *Solver) sweepBackward(z *field.F2) {
	nx, ny := sv.G.NX, sv.G.NY
	for b := 0; b < ny; b += ssorBand {
		n := min(ssorBand, ny-b)
		j0 := ny - 1 - b
		j1, j2, j3 := max(j0-1, 0), max(j0-2, 0), max(j0-3, 0)
		d0, d1, d2, d3 := interior(sv.diag, j0, 0, nx), interior(sv.diag, j1, 0, nx), interior(sv.diag, j2, 0, nx), interior(sv.diag, j3, 0, nx)
		e0, e1, e2, e3 := interior(sv.tW, j0, 1, nx), interior(sv.tW, j1, 1, nx), interior(sv.tW, j2, 1, nx), interior(sv.tW, j3, 1, nx)
		nf0, nf1, nf2, nf3 := interior(sv.tS, j0+1, 0, nx), interior(sv.tS, j1+1, 0, nx), interior(sv.tS, j2+1, 0, nx), interior(sv.tS, j3+1, 0, nx)
		z0, z1, z2, z3 := interior(z, j0, 0, nx), interior(z, j1, 0, nx), interior(z, j2, 0, nx), interior(z, j3, 0, nx)
		zN := interior(z, min(j0+1, ny-1), 0, nx) // the row above the band, read only when there is one
		var p0, p1, p2, p3 float64
		for u := nx - 1; u > -n; u-- {
			if i := u + 3; n > 3 && i >= 0 && i < nx {
				p3 = gsBackward(i < nx-1, true, d3[i], z3[i], e3[i], p3, nf3[i], p2)
				z3[i] = p3
			}
			if i := u + 2; n > 2 && i >= 0 && i < nx {
				p2 = gsBackward(i < nx-1, true, d2[i], z2[i], e2[i], p2, nf2[i], p1)
				z2[i] = p2
			}
			if i := u + 1; n > 1 && i >= 0 && i < nx {
				p1 = gsBackward(i < nx-1, true, d1[i], z1[i], e1[i], p1, nf1[i], p0)
				z1[i] = p1
			}
			if u >= 0 {
				north := 0.0
				if b > 0 {
					north = zN[u]
				}
				p0 = gsBackward(u < nx-1, b > 0, d0[u], z0[u], e0[u], p0, nf0[u], north)
				z0[u] = p0
			}
		}
	}
}

// gsForward is one forward Gauss-Seidel cell, z = (r + tW zW + tS zS)/d,
// and zero on land.  The coupling along the row (t1 z1) and across rows
// (t2 z2) is dropped — not added as zero, which would lose a -0 — where
// the neighbour is off the tile.
func gsForward(cols, rows bool, d, r, t1, z1, t2, z2 float64) float64 {
	if d == 0 {
		return 0
	}
	v := r
	if cols {
		v += t1 * z1
	}
	if rows {
		v += t2 * z2
	}
	return v / d
}

// gsBackward is one backward cell, z += (0 + tE zE + tN zN)/d, with the
// couplings dropped as in gsForward; land is left untouched.
func gsBackward(cols, rows bool, d, z, t1, z1, t2, z2 float64) float64 {
	if d == 0 {
		return z
	}
	v := 0.0
	if cols {
		v += t1 * z1
	}
	if rows {
		v += t2 * z2
	}
	return z + v/d
}

// CorrectVelocities subtracts the surface-pressure gradient from the
// provisional velocities on all faces up to index n, completing the
// projection (paper eq. 1's grad ps term).  ps must have a current
// halo (Solve leaves it so).
func CorrectVelocities(g *grid.Local, s *kernel.State, dt float64, c *kernel.Counters) {
	h, n := s.U.H, g.NX+1 // faces 0..NX; the masks share the velocities' halo
	for k := 0; k < g.NZ; k++ {
		for j := 0; j <= g.NY; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			hw := g.HFacW.Row(j, k)[h:][:n]
			hs := g.HFacS.Row(j, k)[h:][:n]
			ur := s.U.Row(j, k)[h:][:n]
			vr := s.V.Row(j, k)[h:][:n]
			ps, psW := interior(s.Ps, j, 0, n), interior(s.Ps, j, -1, n)
			psS := interior(s.Ps, j-1, 0, n)
			for i, hwi := range hw {
				if hwi > 0 {
					ur[i] += -dt * (ps[i] - psW[i]) / dx
				}
				if hs[i] > 0 {
					vr[i] += -dt * (ps[i] - psS[i]) / dy
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
