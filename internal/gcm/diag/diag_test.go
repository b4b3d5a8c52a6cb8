package diag

import (
	"math"
	"testing"

	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
)

// rig builds a flat-bottomed global snapshot with configurable fields.
func rig(t *testing.T, nx, ny, nz int, set func(k int, u, v, th *field.F2)) *State {
	t.Helper()
	dz := make([]float64, nz)
	for k := range dz {
		dz[k] = 500
	}
	g, err := grid.NewLocal(grid.Config{
		NX: nx, NY: ny, NZ: nz, DX: 1e5, DY: 1e5, Lat0: 30, DZ: dz,
	}, 0, 0, nx, ny, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &State{G: g}
	for k := 0; k < nz; k++ {
		u := field.NewF2(nx, ny, 0)
		v := field.NewF2(nx, ny, 0)
		th := field.NewF2(nx, ny, 0)
		if set != nil {
			set(k, u, v, th)
		}
		s.U = append(s.U, u)
		s.V = append(s.V, v)
		s.Theta = append(s.Theta, th)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateShapes(t *testing.T) {
	s := rig(t, 8, 6, 2, nil)
	s.U = s.U[:1]
	if err := s.Validate(); err == nil {
		t.Fatal("level-count mismatch accepted")
	}
}

func TestOverturningUniformV(t *testing.T) {
	// v = 0.1 m/s everywhere: psi at level k is cumulative transport
	// 0.1 * nx*dx * dz * (k+1).
	s := rig(t, 8, 6, 3, func(k int, u, v, th *field.F2) {
		v.Fill(0.1)
	})
	psi := s.Overturning()
	for k := 0; k < 3; k++ {
		want := 0.1 * 8 * 1e5 * 500 * float64(k+1) / 1e6
		// Row 0's south face is a wall (HFacS = 0): zero transport.
		if got := psi.At(0, k); got != 0 {
			t.Fatalf("transport through the southern wall: %g", got)
		}
		if got := psi.At(3, k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("psi(3,%d) = %g Sv, want %g", k, got, want)
		}
	}
}

func TestHeatTransportSign(t *testing.T) {
	// Warm water moving north must carry positive heat transport.
	s := rig(t, 8, 6, 2, func(k int, u, v, th *field.F2) {
		v.Fill(0.05)
		th.Fill(15)
	})
	ht := s.HeatTransport()
	if ht[0] != 0 {
		t.Fatalf("wall row transport = %g", ht[0])
	}
	for j := 1; j < 6; j++ {
		if ht[j] <= 0 {
			t.Fatalf("northward warm flow gives non-positive transport at j=%d: %g", j, ht[j])
		}
	}
	// Doubling theta doubles the transport (linearity).
	s2 := rig(t, 8, 6, 2, func(k int, u, v, th *field.F2) {
		v.Fill(0.05)
		th.Fill(30)
	})
	ht2 := s2.HeatTransport()
	if math.Abs(ht2[3]-2*ht[3]) > 1e-12 {
		t.Fatalf("transport not linear in theta: %g vs %g", ht2[3], ht[3])
	}
}

func TestBarotropicStreamfunctionGyre(t *testing.T) {
	// An eastward jet in the middle rows: psi must dip and recover,
	// with the extremum inside the jet band.
	s := rig(t, 10, 9, 1, func(k int, u, v, th *field.F2) {
		for j := 3; j <= 5; j++ {
			for i := 0; i < 10; i++ {
				u.Set(i, j, 0.2)
			}
		}
	})
	psi := s.BarotropicStreamfunction()
	if psi.At(5, 1) != 0 {
		t.Fatalf("psi south of the jet = %g, want 0", psi.At(5, 1))
	}
	if psi.At(5, 4) >= 0 {
		t.Fatalf("eastward jet should give negative psi inside: %g", psi.At(5, 4))
	}
	// North of the jet the cumulative integral is flat.
	if math.Abs(psi.At(5, 8)-psi.At(5, 6)) > 1e-12 {
		t.Fatalf("psi not flat north of the jet")
	}
}
