package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"hyades/internal/gcm/eos"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
)

// The oracles below are the bodies ComputeGTracers, Hydrostatic,
// ConvectiveAdjust, ComputeGMomentum and Continuity had before a face
// flux and a row of buoyancy were computed once and the rows were cut
// to the sweep (DESIGN.md, "Divider-bound kernels"), moved here
// verbatim.  TestKernelsMatchOracles holds the kernels to them bit for
// bit; they are the reference, not a second code path.

func oracleComputeGTracers(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := Halo - 1 // stencil reaches one further; halo is 3
	gth, gs := s.gth[s.cur], s.gs[s.cur]
	nz := g.NZ
	kh, kv := p.KhTracer, p.KvTracer
	for k := 0; k < nz; k++ {
		dz := g.DZ[k]
		var dzFUp, dzFDn float64
		if k > 0 {
			dzFUp = 0.5 * (g.DZ[k-1] + g.DZ[k])
		}
		if k < nz-1 {
			dzFDn = 0.5 * (g.DZ[k] + g.DZ[k+1])
		}
		for j := -m; j < g.NY+m; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			area := dx * dy
			dxsS, dxsN := g.DXS(j), g.DXS(j+1)
			hcr := g.HFacC.Row(j, k)
			hwr := g.HFacW.Row(j, k)
			hsr := g.HFacS.Row(j, k)
			hsrN := g.HFacS.Row(j+1, k)
			ur := s.U.Row(j, k)
			vr := s.V.Row(j, k)
			vrN := s.V.Row(j+1, k)
			thr := s.Theta.Row(j, k)
			thrS := s.Theta.Row(j-1, k)
			thrN := s.Theta.Row(j+1, k)
			sar := s.Salt.Row(j, k)
			sarS := s.Salt.Row(j-1, k)
			sarN := s.Salt.Row(j+1, k)
			gthr := gth.Row(j, k)
			gsr := gs.Row(j, k)
			var hcrUp, thrUp, sarUp, wr []float64
			if k > 0 {
				hcrUp = g.HFacC.Row(j, k-1)
				thrUp = s.Theta.Row(j, k-1)
				sarUp = s.Salt.Row(j, k-1)
				wr = s.W.Row(j, k)
			}
			var hcrDn, thrDn, sarDn, wrDn []float64
			if k < nz-1 {
				hcrDn = g.HFacC.Row(j, k+1)
				thrDn = s.Theta.Row(j, k+1)
				sarDn = s.Salt.Row(j, k+1)
				wrDn = s.W.Row(j, k+1)
			}
			for i := -m; i < g.NX+m; i++ {
				n := i + h
				hc := hcr[n]
				if hc == 0 {
					gthr[n] = 0
					gsr[n] = 0
					continue
				}
				vol := area * dz * hc
				// Horizontal advective + diffusive fluxes on the four
				// side faces (flux form: conservative).
				conv := 0.0
				convS := 0.0
				{ // west face
					u := ur[n]
					fa := dy * dz * hwr[n]
					thFace := 0.5 * (thr[n-1] + thr[n])
					sFace := 0.5 * (sar[n-1] + sar[n])
					dTh := (thr[n] - thr[n-1]) / dx
					dS := (sar[n] - sar[n-1]) / dx
					conv += fa * (u*thFace - kh*dTh)
					convS += fa * (u*sFace - kh*dS)
				}
				{ // east face
					u := ur[n+1]
					fa := dy * dz * hwr[n+1]
					thFace := 0.5 * (thr[n] + thr[n+1])
					sFace := 0.5 * (sar[n] + sar[n+1])
					dTh := (thr[n+1] - thr[n]) / dx
					dS := (sar[n+1] - sar[n]) / dx
					conv -= fa * (u*thFace - kh*dTh)
					convS -= fa * (u*sFace - kh*dS)
				}
				{ // south face
					v := vr[n]
					fa := dxsS * dz * hsr[n]
					thFace := 0.5 * (thrS[n] + thr[n])
					sFace := 0.5 * (sarS[n] + sar[n])
					dTh := (thr[n] - thrS[n]) / dy
					dS := (sar[n] - sarS[n]) / dy
					conv += fa * (v*thFace - kh*dTh)
					convS += fa * (v*sFace - kh*dS)
				}
				{ // north face
					v := vrN[n]
					fa := dxsN * dz * hsrN[n]
					thFace := 0.5 * (thr[n] + thrN[n])
					sFace := 0.5 * (sar[n] + sarN[n])
					dTh := (thrN[n] - thr[n]) / dy
					dS := (sarN[n] - sar[n]) / dy
					conv -= fa * (v*thFace - kh*dTh)
					convS -= fa * (v*sFace - kh*dS)
				}
				// Vertical advection + diffusion across the top and
				// bottom faces; w lives on top faces, w(k=0) = 0.
				if k > 0 && hcrUp[n] > 0 {
					w := wr[n]
					thF := 0.5 * (thrUp[n] + thr[n])
					sF := 0.5 * (sarUp[n] + sar[n])
					dTh := (thr[n] - thrUp[n]) / dzFUp
					dS := (sar[n] - sarUp[n]) / dzFUp
					conv += area * (w*thF - kv*dTh)
					convS += area * (w*sF - kv*dS)
				}
				if k < nz-1 && hcrDn[n] > 0 {
					w := wrDn[n]
					thF := 0.5 * (thr[n] + thrDn[n])
					sF := 0.5 * (sar[n] + sarDn[n])
					dTh := (thrDn[n] - thr[n]) / dzFDn
					dS := (sarDn[n] - sar[n]) / dzFDn
					conv -= area * (w*thF - kv*dTh)
					convS -= area * (w*sF - kv*dS)
				}
				gthr[n] = conv / vol
				gsr[n] = convS / vol
			}
		}
	}
	c.AddPS(ComputeGTracersOps(g))
}

func oracleHydrostatic(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := Halo - 1
	acc := s.accRow
	for j := -m; j < g.NY+m; j++ {
		for n := range acc {
			acc[n] = 0
		}
		// The downward integral runs k-outer over per-column
		// accumulators: each column still applies its half-level
		// increments in ascending-k order, bit-identical to the
		// column-inner loop.
		for k := 0; k < g.NZ; k++ {
			halfDz := 0.5 * g.DZ[k]
			hcr := g.HFacC.Row(j, k)
			thr := s.Theta.Row(j, k)
			sar := s.Salt.Row(j, k)
			phr := s.Phy.Row(j, k)
			for i := -m; i < g.NX+m; i++ {
				n := i + h
				a := acc[n]
				if hcr[n] == 0 {
					phr[n] = a
					continue
				}
				b := p.EOS.Buoyancy(thr[n], sar[n], k)
				half := halfDz * b
				a -= half // buoyant fluid lowers pressure below it
				phr[n] = a
				acc[n] = a - half
			}
		}
	}
	c.AddPS(HydrostaticOps(g, p))
}

func oracleConvectiveAdjust(g *grid.Local, s *State, p *Params, c *Counters) {
	if !p.ImplicitConvection {
		return
	}
	m := Halo - 1
	var ops int64
	unstable := func(i, j, ka, kb int) bool {
		ops += int64(2*p.EOS.FlopsPerCell()) + 1
		ba := p.EOS.Buoyancy(s.Theta.At(i, j, ka), s.Salt.At(i, j, ka), ka)
		bb := p.EOS.Buoyancy(s.Theta.At(i, j, kb), s.Salt.At(i, j, kb), kb)
		return bb > ba
	}
	// mixRegion homogenises the tracer pair over [lo, hi], volume
	// weighted — the whole region becomes exactly uniform, so a mixed
	// block is internally stable and the scheme terminates.
	mixRegion := func(i, j, lo, hi int) {
		var wSum, tSum, sSum float64
		for k := lo; k <= hi; k++ {
			w := g.DZ[k] * g.HFacC.At(i, j, k)
			wSum += w
			tSum += w * s.Theta.At(i, j, k)
			sSum += w * s.Salt.At(i, j, k)
		}
		tm, sm := tSum/wSum, sSum/wSum
		for k := lo; k <= hi; k++ {
			s.Theta.Set(i, j, k, tm)
			s.Salt.Set(i, j, k, sm)
		}
		ops += int64(hi-lo+1) * 8
	}
	for j := -m; j < g.NY+m; j++ {
		for i := -m; i < g.NX+m; i++ {
			for k := 0; k < g.NZ-1; {
				if g.HFacC.At(i, j, k) == 0 || g.HFacC.At(i, j, k+1) == 0 {
					k++
					continue
				}
				if !unstable(i, j, k, k+1) {
					k++
					continue
				}
				// Grow the mixed region upward until the column above
				// it is stable (or land), then continue below it.
				lo, hi := k, k+1
				mixRegion(i, j, lo, hi)
				for lo > 0 && g.HFacC.At(i, j, lo-1) > 0 && unstable(i, j, lo-1, lo) {
					lo--
					mixRegion(i, j, lo, hi)
				}
				k = hi
			}
		}
	}
	c.AddPS(ops)
}

func oracleComputeGMomentum(g *grid.Local, s *State, p *Params, c *Counters) {
	const h = Halo
	m := 1
	gu, gv := s.gu[s.cur], s.gv[s.cur]
	nz := g.NZ
	ah, av, botDrag := p.AhMom, p.AvMom, p.BotDrag
	for k := 0; k < nz; k++ {
		dzK := g.DZ[k]
		var dzFUp, dzFDn, dzMid float64
		if k > 0 {
			dzFUp = 0.5 * (g.DZ[k-1] + g.DZ[k])
		}
		if k < nz-1 {
			dzFDn = 0.5 * (g.DZ[k] + g.DZ[k+1])
		}
		if k > 0 && k < nz-1 {
			dzMid = g.DZ[k] + 0.5*(g.DZ[max(k-1, 0)]+g.DZ[min(k+1, nz-1)])
		}
		for j := -m; j < g.NY+m; j++ {
			dx, dy := g.DXC(j), g.DYC(j)
			dx2, dy2 := 2*dx, 2*dy
			dxdx, dydy := dx*dx, dy*dy
			f := g.F(j)
			hw := g.HFacW.Row(j, k)
			hs := g.HFacS.Row(j, k)
			hcr := g.HFacC.Row(j, k)
			ur := s.U.Row(j, k)
			urS := s.U.Row(j-1, k)
			urN := s.U.Row(j+1, k)
			vr := s.V.Row(j, k)
			vrS := s.V.Row(j-1, k)
			vrN := s.V.Row(j+1, k)
			wJ := s.W.Row(j, k)
			wJS := s.W.Row(j-1, k)
			gur := gu.Row(j, k)
			gvr := gv.Row(j, k)
			var hcrDn, uUp, uDn, vUp, vDn, wJDn, wJSDn []float64
			if k > 0 {
				uUp = s.U.Row(j, k-1)
				vUp = s.V.Row(j, k-1)
			}
			if k < nz-1 {
				hcrDn = g.HFacC.Row(j, k+1)
				uDn = s.U.Row(j, k+1)
				vDn = s.V.Row(j, k+1)
				wJDn = s.W.Row(j, k+1)
				wJSDn = s.W.Row(j-1, k+1)
			}
			for i := -m; i < g.NX+m+1; i++ { // faces up to nx+m
				n := i + h
				// ---- u tendency at the west face (i,j,k) ----
				if hw[n] == 0 {
					gur[n] = 0
				} else {
					u := ur[n]
					vBar := 0.25 * (vr[n-1] + vr[n] + vrN[n-1] + vrN[n])
					dudx := (ur[n+1] - ur[n-1]) / dx2
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
					visc := ah * ((ur[n+1]-2*u+ur[n-1])/dxdx +
						(urN[n]-2*u+urS[n])/dydy)
					if nz > 1 {
						visc += oracleVertLapRow(av, uUp, ur, uDn, n, k, nz, dzFUp, dzFDn, dzK)
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
				uBar := 0.25 * (urS[n] + urS[n+1] + ur[n] + ur[n+1])
				dvdx := (vr[n+1] - vr[n-1]) / dx2
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
				visc := ah * ((vr[n+1]-2*v+vr[n-1])/dxdx +
					(vrN[n]-2*v+vrS[n])/dydy)
				if nz > 1 {
					visc += oracleVertLapRow(av, vUp, vr, vDn, n, k, nz, dzFUp, dzFDn, dzK)
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

func oracleContinuity(g *grid.Local, s *State, c *Counters) {
	const h = Halo
	acc := s.accRow
	for j := 0; j < g.NY; j++ {
		dx, dy := g.DXC(j), g.DYC(j)
		area := dx * dy
		dxsS, dxsN := g.DXS(j), g.DXS(j+1)
		w0 := s.W.Row(j, 0)
		for i := 0; i < g.NX; i++ {
			w0[i+h] = 0
			acc[i] = 0
		}
		// k-outer with a per-column accumulator row: each cell still sees
		// its column's divergences in ascending-k order, so the downward
		// integral accumulates in the seed order and stays bit-identical.
		for k := 0; k < g.NZ; k++ {
			dzk := g.DZ[k]
			ur := s.U.Row(j, k)
			hw := g.HFacW.Row(j, k)
			vr := s.V.Row(j, k)
			vrN := s.V.Row(j+1, k)
			hsr := g.HFacS.Row(j, k)
			hsrN := g.HFacS.Row(j+1, k)
			var wNext []float64
			if k < g.NZ-1 {
				wNext = s.W.Row(j, k+1)
			}
			for i := 0; i < g.NX; i++ {
				n := i + h
				div := dy*dzk*(ur[n+1]*hw[n+1]-ur[n]*hw[n]) +
					dzk*(dxsN*vrN[n]*hsrN[n]-dxsS*vr[n]*hsr[n])
				// With k increasing downward and w positive in +k, the
				// cell's mass balance is w(k+1) = w(k) - outflux/area.
				acc[i] -= div / area
				if k < g.NZ-1 {
					wNext[n] = acc[i]
				}
			}
		}
	}
	c.AddPS(ContinuityOps(g))
}

func oracleVertLapRow(av float64, upR, curR, dnR []float64, n, k, nz int, dzFUp, dzFDn, dzK float64) float64 {
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

// oracleGrid builds an nx×ny×nz tile in the middle of a larger domain,
// so halo rows have sane metrics, and replaces its masks by random ones
// over the whole backing arrays: land, shaved and open cells drawn cell
// by cell, which gives isolated wet cells, one-level columns and wet
// cells under land.  kind 0 is a beta-plane, 1 a sphere (DXC and DXS
// change from row to row), 2 a beta-plane whose DYC changes every
// second row, so some rows share a meridional flux and some must not.
func oracleGrid(t *testing.T, rng *rand.Rand, nx, ny, nz, kind int) *grid.Local {
	t.Helper()
	dz := make([]float64, nz)
	for k := range dz {
		dz[k] = 40 * (1 + 0.35*float64(k))
	}
	cfg := grid.Config{
		NX: nx + 2*Halo, NY: ny + 2*Halo, NZ: nz, DX: 2e4, DY: 2.4e4, Lat0: 35, DZ: dz,
	}
	if kind == 1 {
		cfg.Spherical, cfg.Lat0, cfg.Lat1, cfg.LonSpan = true, -60, 70, 90
	}
	g, err := grid.NewLocal(cfg, Halo, Halo, nx, ny, Halo)
	if err != nil {
		t.Fatal(err)
	}
	if kind == 2 {
		// grid.NewLocal only builds uniform DYC; reach the row table.
		v := reflect.ValueOf(g).Elem().FieldByName("dyc")
		dyc := *(*[]float64)(unsafe.Pointer(v.UnsafeAddr()))
		for jj := range dyc {
			dyc[jj] *= 1 + 0.05*float64(jj/2%3)
		}
	}
	randomMasks(g, rng, 0.3)
	return g
}

// randomMasks redraws HFacC over the whole backing array (land with
// probability pLand, else shaved or open) and rebuilds the face masks
// from it the way grid.buildMasks does.
func randomMasks(g *grid.Local, rng *rand.Rand, pLand float64) {
	hc := g.HFacC.Raw()
	for n := range hc {
		switch r := rng.Float64(); {
		case r < pLand:
			hc[n] = 0
		case r < pLand+0.2:
			hc[n] = 0.2 + 0.6*rng.Float64()
		default:
			hc[n] = 1
		}
	}
	faceMasks(g)
}

func faceMasks(g *grid.Local) {
	for k := 0; k < g.NZ; k++ {
		for j := -g.H; j < g.NY+g.H; j++ {
			for i := -g.H; i < g.NX+g.H; i++ {
				w, s := 0.0, 0.0
				if i > -g.H {
					w = math.Min(g.HFacC.At(i, j, k), g.HFacC.At(i-1, j, k))
				}
				if j > -g.H {
					s = math.Min(g.HFacC.At(i, j, k), g.HFacC.At(i, j-1, k))
				}
				g.HFacW.Set(i, j, k, w)
				g.HFacS.Set(i, j, k, s)
			}
		}
	}
}

// oracleState fills two states identically, halo included: velocities
// of either sign, and a tracer pair around the EOS reference whose
// stratification is weak against its noise, so that many columns mix
// and mixed regions grow upward.
func oracleState(rng *rand.Rand, nx, ny, nz int, t0, s0, sAmp float64) (a, b *State) {
	a, b = NewState(nx, ny, nz), NewState(nx, ny, nz)
	fill := func(fa, fb *field.F3, f func(k int) float64) {
		ra, rb := fa.Raw(), fb.Raw()
		plane := len(ra) / nz
		for n := range ra {
			ra[n] = f(n / plane)
			rb[n] = ra[n]
		}
	}
	fill(a.U, b.U, func(int) float64 { return 0.2 * rng.NormFloat64() })
	fill(a.V, b.V, func(int) float64 { return 0.2 * rng.NormFloat64() })
	fill(a.W, b.W, func(int) float64 { return 1e-4 * rng.NormFloat64() })
	fill(a.Theta, b.Theta, func(k int) float64 { return t0 - 0.4*float64(k) + rng.NormFloat64() })
	fill(a.Salt, b.Salt, func(int) float64 { return s0 + sAmp*rng.NormFloat64() })
	// Nothing may be read from scratch that the same call did not write.
	for _, sc := range [][]float64{a.buoy, a.fluxN[0], a.fluxN[1], a.fluxB[0].Raw(), a.fluxB[1].Raw()} {
		for n := range sc {
			sc[n] = math.NaN()
		}
	}
	return a, b
}

// sameBits compares two fields over their full backing arrays.
func sameBits(t *testing.T, what string, got, want interface{ Raw() []float64 }) {
	t.Helper()
	g, w := got.Raw(), want.Raw()
	for n := range w {
		if math.Float64bits(g[n]) != math.Float64bits(w[n]) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", what, n,
				g[n], math.Float64bits(g[n]), w[n], math.Float64bits(w[n]))
		}
	}
}

// TestKernelsMatchOracles holds the reworked PS sweeps to their former
// bodies bit for bit, overcomputation margin included, over every small
// tile shape, random masks, the three grid kinds and both equations of
// state, for two consecutive steps on one State (scratch left by a
// step, a level or a row must not leak into the next).
// ConvectiveAdjust's flop count feeds virtual time and is compared too.
func TestKernelsMatchOracles(t *testing.T) {
	fluids := []struct {
		name         string
		t0, s0, sAmp float64 // tracer pair: reference values, noise of the second
		p            Params
	}{
		{"ocean", 12, 35, 0.3, Params{
			Dt: 600, AhMom: 120, AvMom: 2e-3, KhTracer: 60, KvTracer: 3e-5, BotDrag: 1e-5,
			ABEps: 0.01, EOS: eos.DefaultOcean(), ImplicitConvection: true,
		}},
		// AvMom 0 takes the vertical friction's early return.
		{"atmosphere", 290, 0.01, 0.004, Params{
			Dt: 600, AhMom: 8e4, KhTracer: 2e4, KvTracer: 1e-2,
			ABEps: 0.01, EOS: eos.DefaultAtmosphere(), ImplicitConvection: true,
		}},
	}
	seed := int64(0)
	for _, fl := range fluids {
		for kind := 0; kind < 3; kind++ {
			for _, nz := range []int{1, 2, 4, 15} {
				for ny := 1; ny <= 9; ny++ {
					for nx := 1; nx <= 9; nx++ {
						seed++
						name := fmt.Sprintf("%s/%dx%dx%d/grid%d", fl.name, nx, ny, nz, kind)
						rng := rand.New(rand.NewSource(seed))
						g := oracleGrid(t, rng, nx, ny, nz, kind)
						s, o := oracleState(rng, nx, ny, nz, fl.t0, fl.s0, fl.sAmp)
						matchOracles(t, name, g, &fl.p, s, o)
					}
				}
			}
		}
	}
}

// matchOracles runs two steps of the PS phase on s with the kernels
// and on its twin o with the oracles.
func matchOracles(t *testing.T, name string, g *grid.Local, p *Params, s, o *State) {
	t.Helper()
	var cs, co Counters
	for step := 0; step < 2; step++ {
		ComputeGTracers(g, s, p, &cs)
		oracleComputeGTracers(g, o, p, &co)
		sameBits(t, name+" gth", s.GTh(), o.GTh())
		sameBits(t, name+" gs", s.GS(), o.GS())
		StepTracers(g, s, p, &cs)
		StepTracers(g, o, p, &co)
		ConvectiveAdjust(g, s, p, &cs)
		oracleConvectiveAdjust(g, o, p, &co)
		sameBits(t, name+" theta", s.Theta, o.Theta)
		sameBits(t, name+" salt", s.Salt, o.Salt)
		if cs.PS != co.PS {
			t.Fatalf("%s step %d: PS = %d, oracle %d", name, step, cs.PS, co.PS)
		}
		Hydrostatic(g, s, p, &cs)
		oracleHydrostatic(g, o, p, &co)
		sameBits(t, name+" phy", s.Phy, o.Phy)
		ComputeGMomentum(g, s, p, &cs)
		oracleComputeGMomentum(g, o, p, &co)
		sameBits(t, name+" gu", s.GU(), o.GU())
		sameBits(t, name+" gv", s.GV(), o.GV())
		StepMomentum(g, s, p, &cs)
		StepMomentum(g, o, p, &co)
		Continuity(g, s, &cs)
		oracleContinuity(g, o, &co)
		sameBits(t, name+" w", s.W, o.W)
		s.Rotate()
		o.Rotate()
	}
}
