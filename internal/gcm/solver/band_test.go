package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyades/internal/gcm/field"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/reduce"
)

// refSSOR is the row-by-row symmetric Gauss-Seidel sweep the banded
// precondition replaced, kept verbatim as its oracle: one cell at a
// time, west to east and south to north, then back.
func refSSOR(sv *Solver, r, z *field.F2) {
	g := sv.G
	hr, hz := r.H, z.H
	for j := 0; j < g.NY; j++ {
		dr := sv.diag.Row(j)
		tw := sv.tW.Row(j)
		ts := sv.tS.Row(j)
		rr := r.Row(j)
		zr := z.Row(j)
		var zS []float64
		if j > 0 {
			zS = z.Row(j - 1)
		}
		for i := 0; i < g.NX; i++ {
			d := dr[i+1]
			if d == 0 {
				zr[i+hz] = 0
				continue
			}
			v := rr[i+hr]
			if i > 0 {
				v += tw[i+1] * zr[i-1+hz]
			}
			if j > 0 {
				v += ts[i+1] * zS[i+hz]
			}
			zr[i+hz] = v / d
		}
	}
	for j := g.NY - 1; j >= 0; j-- {
		dr := sv.diag.Row(j)
		tw := sv.tW.Row(j)
		tsN := sv.tS.Row(j + 1)
		zr := z.Row(j)
		var zN []float64
		if j < g.NY-1 {
			zN = z.Row(j + 1)
		}
		for i := g.NX - 1; i >= 0; i-- {
			d := dr[i+1]
			if d == 0 {
				continue
			}
			v := 0.0
			if i < g.NX-1 {
				v += tw[i+2] * zr[i+1+hz]
			}
			if j < g.NY-1 {
				v += tsN[i+1] * zN[i+hz]
			}
			zr[i+hz] += v / d
		}
	}
}

// maskedRig builds a solver over an nx x ny tile whose land mask is
// drawn from rng: scattered islands, and — when the tile has room —
// a fully dry row and a dry first or last column.
func maskedRig(t testing.TB, nx, ny int, rng *rand.Rand) *Solver {
	dry := make([]bool, nx*ny)
	for n := range dry {
		dry[n] = rng.Intn(6) == 0
	}
	if ny > 2 && rng.Intn(2) == 0 {
		j := rng.Intn(ny)
		for i := 0; i < nx; i++ {
			dry[j*nx+i] = true
		}
	}
	if nx > 2 && rng.Intn(2) == 0 {
		i := (nx - 1) * rng.Intn(2)
		for j := 0; j < ny; j++ {
			dry[j*nx+i] = true
		}
	}
	shelf := 0.3 + 0.7*rng.Float64()
	return rig(t, nx, ny, func(x, y float64) float64 {
		i, j := int(x*float64(nx)), int(y*float64(ny))
		if dry[j*nx+i] {
			return 0
		}
		return shelf + (1-shelf)*x*(1-0.5*y)
	})
}

// randomField fills the interior and halo of a fresh nx x ny field
// with normal deviates, a few of them exact or negative zeros.
func randomField(nx, ny, halo int, rng *rand.Rand) *field.F2 {
	f := field.NewF2(nx, ny, halo)
	randomize(f, rng)
	return f
}

func sameBits(a, b *field.F2) (int, bool) {
	for n, v := range a.Raw() {
		if math.Float64bits(v) != math.Float64bits(b.Raw()[n]) {
			return n, false
		}
	}
	return 0, true
}

// TestBandedSSORMatchesRowSweep compares the banded precondition with
// the row-by-row oracle bit for bit, over every small tile shape (all
// residues of NY modulo the band, tiles narrower than the band, a
// single row or column) and the production tile sizes.
func TestBandedSSORMatchesRowSweep(t *testing.T) {
	type shape struct{ nx, ny int }
	shapes := []shape{{32, 16}, {32, 32}, {128, 64}}
	for nx := 1; nx <= 11; nx++ {
		for ny := 1; ny <= 11; ny++ {
			shapes = append(shapes, shape{nx, ny})
		}
	}
	rng := rand.New(rand.NewSource(21))
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			sv := maskedRig(t, sh.nx, sh.ny, rng)
			for _, halo := range []int{1, 3} {
				r := randomField(sh.nx, sh.ny, halo, rng)
				// z starts as garbage: the sweep must overwrite every
				// interior cell and touch no halo cell.
				want := randomField(sh.nx, sh.ny, halo, rng)
				got := want.Copy()
				refSSOR(sv, r, want)
				var c kernel.Counters
				sv.precondition(r, got, &c)
				if n, ok := sameBits(got, want); !ok {
					t.Fatalf("%dx%d halo %d trial %d: raw[%d] = %x, want %x",
						sh.nx, sh.ny, halo, trial, n, got.Raw()[n], want.Raw()[n])
				}
				if c.DS != int64(sh.nx*sh.ny)*10 {
					t.Fatalf("%dx%d: charged %d flops", sh.nx, sh.ny, c.DS)
				}
			}
		}
	}
}

// TestFusedDotMatchesDot2 pins the p.q product accumulated inside the
// operator sweep to reduce.Dot2, the owner of the canonical order.
func TestFusedDotMatchesDot2(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][2]int{{1, 1}, {3, 7}, {8, 8}, {32, 16}, {128, 64}} {
		sv := maskedRig(t, sh[0], sh[1], rng)
		for _, halo := range []int{1, 3} {
			p := randomField(sh[0], sh[1], halo, rng)
			q := field.NewF2(sh[0], sh[1], halo)
			got := sv.Apply(p, q, &kernel.Counters{})
			want := reduce.Dot2(p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d halo %d: fused p.q = %x, Dot2 = %x", sh[0], sh[1], halo, got, want)
			}
		}
	}
}

// benchShapes are the tile sizes of the gated workloads: the serial
// 128x64 ocean, ocean16's 32x16, figure9's 32x32 and coupled16's 8x8.
var benchShapes = [][2]int{{128, 64}, {32, 32}, {32, 16}, {8, 8}}

func benchKernel(b *testing.B, fn func(sv *Solver, r, z *field.F2, c *kernel.Counters)) {
	for _, sh := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(23))
			// A shelf and one island, as in the ocean runs: the land
			// branch is taken in runs, not at random.
			sv := rig(b, sh[0], sh[1], func(x, y float64) float64 {
				if x > 0.5 && x < 0.7 && y > 0.4 && y < 0.6 {
					return 0
				}
				return 0.3 + 0.7*x*(1-0.25*y)
			})
			r := randomField(sh[0], sh[1], 1, rng)
			z := field.NewF2(sh[0], sh[1], 1)
			var c kernel.Counters
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				fn(sv, r, z, &c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh[0]*sh[1]), "ns/cell")
		})
	}
}

func BenchmarkPrecondition(b *testing.B) {
	benchKernel(b, func(sv *Solver, r, z *field.F2, c *kernel.Counters) { sv.precondition(r, z, c) })
}

func BenchmarkApply(b *testing.B) {
	benchKernel(b, func(sv *Solver, p, q *field.F2, c *kernel.Counters) { sv.Apply(p, q, c) })
}
