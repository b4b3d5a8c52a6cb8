package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestF2Indexing(t *testing.T) {
	f := NewF2(4, 3, 2)
	f.Set(-2, -2, 1)
	f.Set(5, 4, 2)
	f.Set(0, 0, 3)
	f.Set(3, 2, 4)
	if f.At(-2, -2) != 1 || f.At(5, 4) != 2 || f.At(0, 0) != 3 || f.At(3, 2) != 4 {
		t.Fatal("corner values lost")
	}
	f.Add(0, 0, 10)
	if f.At(0, 0) != 13 {
		t.Fatal("Add failed")
	}
}

func TestF3Indexing(t *testing.T) {
	f := NewF3(4, 3, 5, 1)
	n := 0.0
	for k := 0; k < 5; k++ {
		for j := -1; j < 4; j++ {
			for i := -1; i < 5; i++ {
				f.Set(i, j, k, n)
				n++
			}
		}
	}
	n = 0
	for k := 0; k < 5; k++ {
		for j := -1; j < 4; j++ {
			for i := -1; i < 5; i++ {
				if f.At(i, j, k) != n {
					t.Fatalf("At(%d,%d,%d) = %g, want %g", i, j, k, f.At(i, j, k), n)
				}
				n++
			}
		}
	}
}

func TestPackUnpackRoundTripF2(t *testing.T) {
	for _, s := range []Slab{
		{West, 1, false}, {East, 1, true}, {South, 2, false}, {North, 2, true},
	} {
		f := NewF2(6, 5, 2)
		rng := rand.New(rand.NewSource(1))
		for j := -2; j < 7; j++ {
			for i := -2; i < 8; i++ {
				f.Set(i, j, rng.Float64())
			}
		}
		g := NewF2(6, 5, 2)
		g.UnpackSlab(s, f.PackSlab(s))
		i0, i1, j0, j1 := s.bounds(6, 5, 2)
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				if g.At(i, j) != f.At(i, j) {
					t.Fatalf("slab %v cell (%d,%d) mismatch", s, i, j)
				}
			}
		}
	}
}

// Property: sending an interior edge into a matching halo reproduces
// the edge exactly, for any geometry.
func TestPackUnpackPropertyF3(t *testing.T) {
	f := func(nxR, nyR, nzR, wR uint8, seed int64) bool {
		nx := int(nxR)%6 + 3
		ny := int(nyR)%6 + 3
		nz := int(nzR)%4 + 1
		h := 3
		w := int(wR)%h + 1
		src := NewF3(nx, ny, nz, h)
		rng := rand.New(rand.NewSource(seed))
		for n, raw := 0, src.Raw(); n < len(raw); n++ {
			raw[n] = rng.NormFloat64()
		}
		dst := NewF3(nx, ny, nz, h)
		for _, side := range []Side{West, East, South, North} {
			edge := Slab{Side: side, Width: w}
			halo := Slab{Side: side.Opposite(), Width: w, Halo: true}
			dst.UnpackSlab(halo, src.PackSlab(edge))
			// The receive halo must equal the source edge cell-for-cell.
			ei0, ei1, ej0, ej1 := edge.bounds(nx, ny, h)
			hi0, _, hj0, _ := halo.bounds(nx, ny, h)
			for k := 0; k < nz; k++ {
				for dj := 0; dj < ej1-ej0; dj++ {
					for di := 0; di < ei1-ei0; di++ {
						if dst.At(hi0+di, hj0+dj, k) != src.At(ei0+di, ej0+dj, k) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlabShapes(t *testing.T) {
	f3 := NewF3(32, 32, 5, 3)
	rows, rb := f3.SlabShape(Slab{Side: West, Width: 3})
	if rows != 32*5 || rb != 3*8 {
		t.Fatalf("west 3D slab = %d rows x %d B", rows, rb)
	}
	rows, rb = f3.SlabShape(Slab{Side: North, Width: 3})
	if rows != 5 || rb != 3*38*8 {
		t.Fatalf("north 3D slab = %d rows x %d B", rows, rb)
	}
	f2 := NewF2(32, 32, 1)
	rows, rb = f2.SlabShape(Slab{Side: East, Width: 1})
	if rows != 32 || rb != 8 {
		t.Fatalf("east 2D slab = %d rows x %d B", rows, rb)
	}
	rows, rb = f2.SlabShape(Slab{Side: South, Width: 1})
	if rows != 1 || rb != 34*8 {
		t.Fatalf("south 2D slab = %d rows x %d B", rows, rb)
	}
}

func TestSlabCornersCoveredByTwoPhase(t *testing.T) {
	// After a West/East exchange of interior edges followed by a
	// North/South exchange whose i-range spans the halo, the diagonal
	// corner halo must carry data that originated in the diagonal
	// neighbour's interior.  On a single field, simulate with wraps.
	f := NewF3(4, 4, 1, 2)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			f.Set(i, j, 0, float64(10*i+j))
		}
	}
	f.LocalWrap(true, 2)  // x-direction first
	f.LocalWrap(false, 2) // then y spans corners
	// Corner (-1,-1) should hold the wrapped value from (3,3).
	if got := f.At(-1, -1, 0); got != f.At(3, 3, 0) {
		t.Fatalf("corner halo = %g, want %g", got, f.At(3, 3, 0))
	}
	if got := f.At(5, 5, 0); got != f.At(1, 1, 0) {
		t.Fatalf("corner halo = %g, want %g", got, f.At(1, 1, 0))
	}
}

func TestLevelViews(t *testing.T) {
	f := NewF3(3, 3, 4, 1)
	f.Set(1, 1, 2, 42)
	l := f.Level(2)
	if l.At(1, 1) != 42 {
		t.Fatal("Level copy wrong")
	}
	l.Set(0, 0, 7)
	f.SetLevel(2, l)
	if f.At(0, 0, 2) != 7 {
		t.Fatal("SetLevel wrong")
	}
}

func TestCopySemantics(t *testing.T) {
	f := NewF2(3, 3, 1)
	f.Set(1, 1, 5)
	g := f.Copy()
	g.Set(1, 1, 9)
	if f.At(1, 1) != 5 {
		t.Fatal("Copy aliases storage")
	}
	f.CopyFrom(g)
	if f.At(1, 1) != 9 {
		t.Fatal("CopyFrom failed")
	}
}

func TestFill(t *testing.T) {
	f := NewF3(2, 2, 2, 1)
	f.Fill(3)
	if f.At(-1, -1, 0) != 3 || f.At(2, 2, 1) != 3 {
		t.Fatal("Fill missed halo")
	}
}

func TestSideNames(t *testing.T) {
	want := map[Side]string{West: "west", East: "east", South: "south", North: "north"}
	for s, name := range want {
		if s.String() != name || s.Opposite().Opposite() != s {
			t.Errorf("side %d: %q, opposite of opposite %v", int(s), s.String(), s.Opposite().Opposite())
		}
	}
}
