// Package reduce owns the canonical accumulation order for the
// floating-point reductions that feed the model's global sums.
//
// Floating-point addition is not associative, so the order of a local
// accumulation is part of the answer: reordering a loop nest around a
// `sum +=` silently changes the bits that go into GlobalSum, and with
// them every digest the determinism regression test pins.  Centralising
// the order here means a refactor of model code cannot reorder a
// reduction without editing this package — which the redorder analyzer
// (internal/lint) enforces by flagging manual accumulation loops in any
// function that calls GlobalSum.
//
// The canonical order is storage order: i fastest, then j, then k —
// exactly the nesting the original hand-written loops used, so routing
// through these helpers is bit-identical to the code they replaced.
//
// One local sum is formed outside this package: the CG loop's p.q is
// accumulated inside package solver's operator sweep, where the add
// chain hides under the stencil.  It is a copy of Dot2's loop, not a
// second order: solver's TestFusedDotMatchesDot2 pins it to Dot2
// bitwise, so Dot2 remains the definition.
package reduce

import "hyades/internal/gcm/field"

// Over2 sums term(i, j) over the interior [0, nx) x [0, ny) in
// canonical order: j outer, i inner.
func Over2(nx, ny int, term func(i, j int) float64) float64 {
	s := 0.0
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			s += term(i, j)
		}
	}
	return s
}

// Over3 sums term(i, j, k) over [0, nx) x [0, ny) x [0, nz) in
// canonical order: k outer, then j, then i.
func Over3(nx, ny, nz int, term func(i, j, k int) float64) float64 {
	s := 0.0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				s += term(i, j, k)
			}
		}
	}
	return s
}

// Dot2 returns the interior inner product of two same-shape fields in
// canonical order.
func Dot2(a, b *field.F2) float64 {
	if a.NX != b.NX || a.NY != b.NY {
		panic("reduce: Dot2 shape mismatch")
	}
	s := 0.0
	for j := 0; j < a.NY; j++ {
		ar := a.Row(j)[a.H : a.H+a.NX]
		br := b.Row(j)[b.H : b.H+a.NX]
		for i, x := range ar {
			s += x * br[i]
		}
	}
	return s
}

// Slice sums xs left to right.
func Slice(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
