// Package diag computes the standard circulation diagnostics a
// climate-research user of the model reaches for first: the meridional
// overturning streamfunction, meridional heat transport and the
// barotropic streamfunction.  These are the quantities behind plates like the paper's
// Fig. 9 and the predictability studies its §5 motivates.
//
// Diagnostics operate on globally gathered level fields (the root rank
// after tile.Halo gathers), paired with a full-domain grid for the
// metric terms.
package diag

import (
	"fmt"

	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
)

// State is a gathered snapshot of the 3-D circulation: one global 2-D
// field per level for each variable (as produced by
// tile.Halo.Gather3Level), plus the full-domain grid.
type State struct {
	G     *grid.Local // built over the whole domain (1x1 decomposition)
	U, V  []*field.F2 // per level
	Theta []*field.F2
}

// Validate checks the snapshot's shape.
func (s *State) Validate() error {
	if s.G == nil {
		return fmt.Errorf("diag: nil grid")
	}
	for name, f := range map[string][]*field.F2{"u": s.U, "v": s.V, "theta": s.Theta} {
		if len(f) != s.G.NZ {
			return fmt.Errorf("diag: %s has %d levels, grid has %d", name, len(f), s.G.NZ)
		}
		for k, l := range f {
			if l.NX != s.G.NX || l.NY != s.G.NY {
				return fmt.Errorf("diag: %s level %d is %dx%d, grid %dx%d", name, k, l.NX, l.NY, s.G.NX, s.G.NY)
			}
		}
	}
	return nil
}

// Overturning returns the meridional overturning streamfunction
// psi(j, k) in Sverdrups (1 Sv = 1e6 m^3/s): the northward transport
// integrated zonally and from the top down to the bottom of level k,
// evaluated at the south face of row j.
func (s *State) Overturning() *field.F2 {
	g := s.G
	out := field.NewF2(g.NY, g.NZ, 0)
	for j := 0; j < g.NY; j++ {
		acc := 0.0
		for k := 0; k < g.NZ; k++ {
			trans := 0.0
			for i := 0; i < g.NX; i++ {
				trans += s.V[k].At(i, j) * g.HFacS.At(i, j, k) * g.DZ[k] * g.DXS(j)
			}
			acc += trans
			out.Set(j, k, acc/1e6)
		}
	}
	return out
}

// HeatTransport returns the northward heat transport across each
// latitude row's south face, in petawatts, using rho0*cp = 4.1e6
// J/(m^3 K) (seawater) and the temperature interpolated to v-points.
func (s *State) HeatTransport() []float64 {
	const rhoCp = 4.1e6
	g := s.G
	out := make([]float64, g.NY)
	for j := 1; j < g.NY; j++ {
		sum := 0.0
		for k := 0; k < g.NZ; k++ {
			for i := 0; i < g.NX; i++ {
				hf := g.HFacS.At(i, j, k)
				if hf == 0 {
					continue
				}
				th := 0.5 * (s.Theta[k].At(i, j-1) + s.Theta[k].At(i, j))
				sum += s.V[k].At(i, j) * th * hf * g.DZ[k] * g.DXS(j)
			}
		}
		out[j] = sum * rhoCp / 1e15
	}
	return out
}

// BarotropicStreamfunction returns psi(i, j) in Sverdrups from the
// depth-integrated zonal flow, integrating from the southern boundary:
// contours of psi trace the gyres of Fig. 9's ocean plate.
func (s *State) BarotropicStreamfunction() *field.F2 {
	g := s.G
	out := field.NewF2(g.NX, g.NY, 0)
	for i := 0; i < g.NX; i++ {
		acc := 0.0
		for j := 0; j < g.NY; j++ {
			ut := 0.0
			for k := 0; k < g.NZ; k++ {
				ut += s.U[k].At(i, j) * g.HFacW.At(i, j, k) * g.DZ[k]
			}
			acc -= ut * g.DYC(j)
			out.Set(i, j, acc/1e6)
		}
	}
	return out
}
