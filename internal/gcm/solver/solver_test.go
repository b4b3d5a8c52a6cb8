package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/tile"
)

// rig builds a serial solver over an nx x ny flat or ramped domain.
func rig(t testing.TB, nx, ny int, depthFrac func(x, y float64) float64) *Solver {
	t.Helper()
	cfg := grid.Config{
		NX: nx, NY: ny, NZ: 3, DX: 1e4, DY: 1.3e4, Lat0: 40,
		DZ: []float64{100, 150, 250}, DepthFrac: depthFrac,
	}
	g, err := grid.NewLocal(cfg, 0, 0, nx, ny, kernel.Halo)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tile.NewHalo(&comm.Serial{}, tile.Decomp{NXg: nx, NYg: ny, Px: 1, Py: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, h, 1e-10, 2000)
}

func TestOperatorSymmetry(t *testing.T) {
	// <Au, v> == <u, Av> over wet cells, for random fields — required
	// for CG convergence.
	sv := rig(t, 10, 8, func(x, y float64) float64 {
		if x > 0.4 && x < 0.6 && y < 0.5 {
			return 0 // a land block
		}
		return 0.4 + 0.6*x
	})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := field.NewF2(10, 8, 1)
		v := field.NewF2(10, 8, 1)
		for j := 0; j < 8; j++ {
			for i := 0; i < 10; i++ {
				u.Set(i, j, rng.NormFloat64())
				v.Set(i, j, rng.NormFloat64())
			}
		}
		sv.H.Update2(u, 1)
		sv.H.Update2(v, 1)
		au := field.NewF2(10, 8, 1)
		av := field.NewF2(10, 8, 1)
		var c kernel.Counters
		sv.Apply(u, au, &c)
		sv.Apply(v, av, &c)
		var uav, vau, scale float64
		for j := 0; j < 8; j++ {
			for i := 0; i < 10; i++ {
				uav += u.At(i, j) * av.At(i, j)
				vau += v.At(i, j) * au.At(i, j)
				scale += math.Abs(u.At(i, j) * av.At(i, j))
			}
		}
		return math.Abs(uav-vau) <= 1e-9*(scale+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorNullSpaceIsConstant(t *testing.T) {
	sv := rig(t, 8, 8, nil)
	u := field.NewF2(8, 8, 1)
	u.Fill(3.7)
	sv.H.Update2(u, 1)
	out := field.NewF2(8, 8, 1)
	var c kernel.Counters
	sv.Apply(u, out, &c)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if math.Abs(out.At(i, j)) > 1e-9 {
				t.Fatalf("A(const) != 0 at (%d,%d): %g", i, j, out.At(i, j))
			}
		}
	}
}

func TestSolveRandomCompatibleRHS(t *testing.T) {
	// For any zero-mean RHS the solve must drive the residual down by
	// the requested factor.
	sv := rig(t, 12, 10, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := field.NewF2(12, 10, 1)
		mean := 0.0
		for j := 0; j < 10; j++ {
			for i := 0; i < 12; i++ {
				v := rng.NormFloat64()
				b.Set(i, j, v)
				mean += v
			}
		}
		mean /= 120
		for j := 0; j < 10; j++ {
			for i := 0; i < 12; i++ {
				b.Add(i, j, -mean)
			}
		}
		x := field.NewF2(12, 10, 1)
		var c kernel.Counters
		iters := sv.Solve(x, b, &c)
		if iters == 0 || iters >= sv.MaxIter {
			return false
		}
		// Verify the residual directly.
		ax := field.NewF2(12, 10, 1)
		sv.Apply(x, ax, &c)
		var rr, bb float64
		for j := 0; j < 10; j++ {
			for i := 0; i < 12; i++ {
				d := b.At(i, j) - ax.At(i, j)
				rr += d * d
				bb += b.At(i, j) * b.At(i, j)
			}
		}
		return rr <= 1e-10*bb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecondPositiveAndSymmetricEffect(t *testing.T) {
	// SSOR must not break CG: identical solves with both
	// preconditioners reach the same solution (up to tolerance).
	mk := func(pre Precond) *field.F2 {
		sv := rig(t, 10, 10, nil)
		sv.Pre = pre
		b := field.NewF2(10, 10, 1)
		for j := 0; j < 10; j++ {
			for i := 0; i < 10; i++ {
				b.Set(i, j, math.Sin(float64(i+3*j)))
			}
		}
		// Remove the mean for compatibility.
		mean := 0.0
		for j := 0; j < 10; j++ {
			for i := 0; i < 10; i++ {
				mean += b.At(i, j)
			}
		}
		mean /= 100
		for j := 0; j < 10; j++ {
			for i := 0; i < 10; i++ {
				b.Add(i, j, -mean)
			}
		}
		x := field.NewF2(10, 10, 1)
		var c kernel.Counters
		sv.Solve(x, b, &c)
		return x
	}
	a := mk(PrecondSSOR)
	bf := mk(PrecondJacobi)
	// Solutions may differ by a constant (null space); compare after
	// removing means.
	meanA, meanB := 0.0, 0.0
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			meanA += a.At(i, j)
			meanB += bf.At(i, j)
		}
	}
	meanA /= 100
	meanB /= 100
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			d := (a.At(i, j) - meanA) - (bf.At(i, j) - meanB)
			if math.Abs(d) > 1e-6 {
				t.Fatalf("preconditioners disagree at (%d,%d) by %g", i, j, d)
			}
		}
	}
}

func TestSSORConvergesFaster(t *testing.T) {
	iters := func(pre Precond) int {
		sv := rig(t, 16, 16, nil)
		sv.Pre = pre
		sv.Tol = 1e-8
		b := field.NewF2(16, 16, 1)
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				b.Set(i, j, math.Sin(float64(i))*math.Cos(float64(j)))
			}
		}
		x := field.NewF2(16, 16, 1)
		var c kernel.Counters
		return sv.Solve(x, b, &c)
	}
	ssor, jac := iters(PrecondSSOR), iters(PrecondJacobi)
	t.Logf("iterations: SSOR=%d Jacobi=%d", ssor, jac)
	if ssor >= jac {
		t.Fatalf("SSOR (%d iters) not faster than Jacobi (%d)", ssor, jac)
	}
}

func TestLandStaysZero(t *testing.T) {
	sv := rig(t, 10, 10, func(x, y float64) float64 {
		if x < 0.3 {
			return 0
		}
		return 1
	})
	b := field.NewF2(10, 10, 1)
	for j := 0; j < 10; j++ {
		for i := 3; i < 10; i++ {
			b.Set(i, j, math.Cos(float64(i*j)))
		}
	}
	// Zero-mean over wet cells.
	mean, n := 0.0, 0
	for j := 0; j < 10; j++ {
		for i := 3; i < 10; i++ {
			mean += b.At(i, j)
			n++
		}
	}
	mean /= float64(n)
	for j := 0; j < 10; j++ {
		for i := 3; i < 10; i++ {
			b.Add(i, j, -mean)
		}
	}
	x := field.NewF2(10, 10, 1)
	var c kernel.Counters
	sv.Solve(x, b, &c)
	for j := 0; j < 10; j++ {
		for i := 0; i < 3; i++ {
			if x.At(i, j) != 0 {
				t.Fatalf("pressure on land at (%d,%d): %g", i, j, x.At(i, j))
			}
		}
	}
}

func TestMeanItersBookkeeping(t *testing.T) {
	sv := rig(t, 8, 8, nil)
	if sv.MeanIters() != 0 {
		t.Fatal("MeanIters before any solve")
	}
	b := field.NewF2(8, 8, 1)
	b.Set(1, 1, 1)
	b.Set(2, 2, -1)
	x := field.NewF2(8, 8, 1)
	var c kernel.Counters
	sv.Solve(x, b, &c)
	sv.Solve(x, b, &c)
	if sv.Solves != 2 || sv.MeanIters() <= 0 {
		t.Fatalf("bookkeeping: %d solves, mean %g", sv.Solves, sv.MeanIters())
	}
}
