package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
)

// The oracles below are the bodies Apply, BuildRHS, CorrectVelocities
// and the CG loop's three vector phases had before their rows were cut
// to the loop's length (DESIGN.md, "Kernel memory layout"), moved here
// verbatim; the phases call the oracle operator and refSSOR where the
// solver calls its own.  TestSolverMatchesOracles holds the solver to
// them bit for bit; they are the reference, not a second code path.

func oracleApply(sv *Solver, p, q *field.F2, c *kernel.Counters) float64 {
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

func oraclePrecondition(sv *Solver, r, z *field.F2, c *kernel.Counters) {
	refSSOR(sv, r, z)
	c.AddDS(int64(sv.G.NX*sv.G.NY) * 10)
}

func oracleInit(sv *Solver) {
	g, x, b, c := sv.G, sv.sx, sv.sb, sv.sc
	oracleApply(sv, x, sv.q, c)
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
	oraclePrecondition(sv, sv.r, sv.z, c)
	sv.p.CopyFrom(sv.z)
}

func oracleAxpy(sv *Solver) {
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
	oraclePrecondition(sv, sv.r, sv.z, c)
}

func oraclePUpd(sv *Solver) {
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

func oracleBuildRHS(sv *Solver, s *kernel.State, dt float64, c *kernel.Counters) *field.F2 {
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

func oracleCorrectVelocities(g *grid.Local, s *kernel.State, dt float64, c *kernel.Counters) {
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

// randomize overwrites every element of f, halo included, with normal
// deviates, a few of them exact or negative zeros.
func randomize(f interface{ Raw() []float64 }, rng *rand.Rand) {
	raw := f.Raw()
	for n := range raw {
		switch rng.Intn(12) {
		case 0:
			raw[n] = math.Copysign(0, -1)
		case 1:
			raw[n] = 0
		default:
			raw[n] = rng.NormFloat64()
		}
	}
}

// twinSolvers builds two solvers over one random-land tile and fills
// their CG vectors identically with garbage, halo included: a phase
// must overwrite what it claims to and leave the rest alone.
func twinSolvers(t *testing.T, nx, ny int, rng *rand.Rand) (sv, so *Solver) {
	seed := rng.Int63()
	sv = maskedRig(t, nx, ny, rand.New(rand.NewSource(seed)))
	so = maskedRig(t, nx, ny, rand.New(rand.NewSource(seed)))
	for _, pair := range [][2]*field.F2{{sv.r, so.r}, {sv.z, so.z}, {sv.p, so.p}, {sv.q, so.q}, {sv.rhs, so.rhs}} {
		randomize(pair[0], rng)
		pair[1].CopyFrom(pair[0])
	}
	return sv, so
}

// sameF2 fails unless got and want agree bit for bit over their full
// backing arrays.
func sameF2(t *testing.T, what string, got, want *field.F2) {
	t.Helper()
	if n, ok := sameBits(got, want); !ok {
		t.Fatalf("%s: raw[%d] = %x, oracle %x", what, n,
			math.Float64bits(got.Raw()[n]), math.Float64bits(want.Raw()[n]))
	}
}

// TestSolverMatchesOracles holds the operator, the CG loop's three
// vector phases, BuildRHS and CorrectVelocities to their former bodies
// bit for bit (every field compared over its full backing array, flop
// counts too) on every NX, NY in 1..11 with random land, for operands
// of halo 1 and 3.
func TestSolverMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for nx := 1; nx <= 11; nx++ {
		for ny := 1; ny <= 11; ny++ {
			for _, halo := range []int{1, 3} {
				name := fmt.Sprintf("%dx%d halo %d", nx, ny, halo)
				sv, so := twinSolvers(t, nx, ny, rng)
				var cv, co kernel.Counters

				p := randomField(nx, ny, halo, rng)
				qv, qo := randomField(nx, ny, halo, rng), field.NewF2(nx, ny, halo)
				qo.CopyFrom(qv)
				pqv, pqo := sv.Apply(p, qv, &cv), oracleApply(so, p, qo, &co)
				sameF2(t, name+" Apply q", qv, qo)
				if math.Float64bits(pqv) != math.Float64bits(pqo) {
					t.Fatalf("%s: Apply p.q = %x, oracle %x", name, math.Float64bits(pqv), math.Float64bits(pqo))
				}

				// The three phases in the order Solve runs them, twice
				// round, each on the vectors the last one left.
				xv, b := randomField(nx, ny, halo, rng), randomField(nx, ny, halo, rng)
				xo := xv.Copy()
				sv.sx, sv.sb, sv.sc = xv, b, &cv
				so.sx, so.sb, so.sc = xo, b, &co
				sv.fnInit()
				oracleInit(so)
				for round := 0; round < 2; round++ {
					sv.alpha = rng.NormFloat64()
					so.alpha = sv.alpha
					sv.fnAxpy()
					oracleAxpy(so)
					sv.beta = rng.NormFloat64()
					so.beta = sv.beta
					sv.fnPUpd()
					oraclePUpd(so)
				}
				sameF2(t, name+" x", xv, xo)
				for _, f := range []struct {
					what     string
					got, ref *field.F2
				}{{"r", sv.r, so.r}, {"z", sv.z, so.z}, {"p", sv.p, so.p}, {"q", sv.q, so.q}} {
					sameF2(t, name+" "+f.what, f.got, f.ref)
				}

				s, o := twinStates(sv.G, rng)
				const dt = 600
				sameF2(t, name+" BuildRHS", sv.BuildRHS(s, dt, &cv), oracleBuildRHS(so, o, dt, &co))
				CorrectVelocities(sv.G, s, dt, &cv)
				oracleCorrectVelocities(so.G, o, dt, &co)
				for _, f := range []struct {
					what     string
					got, ref *field.F3
				}{{"u", s.U, o.U}, {"v", s.V, o.V}} {
					g, w := f.got.Raw(), f.ref.Raw()
					for n := range w {
						if math.Float64bits(g[n]) != math.Float64bits(w[n]) {
							t.Fatalf("%s CorrectVelocities %s: raw[%d] = %x, oracle %x", name, f.what, n,
								math.Float64bits(g[n]), math.Float64bits(w[n]))
						}
					}
				}
				if cv != co {
					t.Fatalf("%s: counted %+v, oracle %+v", name, cv, co)
				}
			}
		}
	}
}

// twinStates fills two states of g's shape identically with random
// velocities and surface pressure, halo included.
func twinStates(g *grid.Local, rng *rand.Rand) (s, o *kernel.State) {
	s, o = kernel.NewState(g.NX, g.NY, g.NZ), kernel.NewState(g.NX, g.NY, g.NZ)
	for _, f := range []struct{ a, b interface{ Raw() []float64 } }{{s.U, o.U}, {s.V, o.V}, {s.Ps, o.Ps}} {
		randomize(f.a, rng)
		copy(f.b.Raw(), f.a.Raw())
	}
	return s, o
}
