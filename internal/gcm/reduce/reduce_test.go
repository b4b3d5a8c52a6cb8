package reduce

import (
	"fmt"
	"testing"

	"hyades/internal/gcm/field"
)

// TestCanonicalOrder pins the exact addition order: the helpers must be
// bit-identical to the hand-written nests they replaced (i fastest,
// then j, then k), not merely close.
func TestCanonicalOrder(t *testing.T) {
	term2 := func(i, j int) float64 { return 1.0 / float64(1+i+7*j) }
	want2 := 0.0
	for j := 0; j < 5; j++ {
		for i := 0; i < 4; i++ {
			want2 += term2(i, j)
		}
	}
	if got := Over2(4, 5, term2); got != want2 {
		t.Errorf("Over2 = %x, want %x", got, want2)
	}

	term3 := func(i, j, k int) float64 { return 1.0 / float64(1+i+7*j+31*k) }
	want3 := 0.0
	for k := 0; k < 3; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 4; i++ {
				want3 += term3(i, j, k)
			}
		}
	}
	if got := Over3(4, 5, 3, term3); got != want3 {
		t.Errorf("Over3 = %x, want %x", got, want3)
	}
}

func TestDot2(t *testing.T) {
	a := field.NewF2(3, 2, 1)
	b := field.NewF2(3, 2, 1)
	want := 0.0
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			a.Set(i, j, float64(1+i)*0.1)
			b.Set(i, j, float64(1+j)*0.3)
			want += a.At(i, j) * b.At(i, j)
		}
	}
	// Halo cells must not contribute.
	a.Set(-1, -1, 999)
	b.Set(-1, -1, 999)
	if got := Dot2(a, b); got != want {
		t.Errorf("Dot2 = %x, want %x", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("Dot2 did not panic on shape mismatch")
		}
	}()
	Dot2(a, field.NewF2(2, 2, 1))
}

func TestSlice(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, -0.05}
	want := ((0.1 + 0.2) + 0.3) + -0.05
	if got := Slice(xs); got != want {
		t.Errorf("Slice = %x, want %x", got, want)
	}
	if Slice(nil) != 0 {
		t.Error("Slice(nil) != 0")
	}
}

var sink float64

// BenchmarkDot2 prices the CG loop's local inner product at the tile
// sizes of the gated workloads.
func BenchmarkDot2(b *testing.B) {
	for _, sh := range [][2]int{{128, 64}, {32, 32}, {32, 16}, {8, 8}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			x := field.NewF2(sh[0], sh[1], 1)
			y := field.NewF2(sh[0], sh[1], 1)
			for n := range x.Raw() {
				x.Raw()[n] = 1 / float64(1+n)
				y.Raw()[n] = float64(n%7) - 3
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sink = Dot2(x, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh[0]*sh[1]), "ns/cell")
		})
	}
}
