// Package field provides the tile-local storage of the MIT GCM port:
// two- and three-dimensional arrays of cell values surrounded by a
// lateral halo ("overlap") region, as in Fig. 5 of the paper.
//
// Indexing follows the model convention: interior cells run over
// [0, NX) x [0, NY); halo cells extend the range to [-H, NX+H) etc.
// The vertical dimension of a 3-D field has no halo — the paper's
// decomposition is horizontal only ("the vertical dimension stays
// within a single node", Fig. 4).
//
// Storage is a single allocation in [k][j][i] order with i fastest,
// matching the Fortran kernel's column-innermost sweeps, so west/east
// halo slabs are strided (many short runs) while north/south slabs are
// contiguous per level — the distinction the communication library's
// cost model cares about.
package field

import (
	"encoding/binary"
	"fmt"
	"math"
)

// F2 is a two-dimensional field with halo.
type F2 struct {
	NX, NY, H int
	stride    int
	data      []float64
}

// NewF2 allocates a zero field.
func NewF2(nx, ny, halo int) *F2 {
	if nx < 1 || ny < 1 || halo < 0 {
		panic(fmt.Sprintf("field: bad F2 dims %dx%d halo %d", nx, ny, halo))
	}
	stride := nx + 2*halo
	return &F2{NX: nx, NY: ny, H: halo, stride: stride, data: make([]float64, stride*(ny+2*halo))}
}

// idx maps (i,j) in [-H, NX+H) x [-H, NY+H) to the flat offset.
func (f *F2) idx(i, j int) int { return (j+f.H)*f.stride + (i + f.H) }

// At returns the value at (i,j); halo indices are valid.
func (f *F2) At(i, j int) float64 { return f.data[f.idx(i, j)] }

// Set stores v at (i,j).
func (f *F2) Set(i, j int, v float64) { f.data[f.idx(i, j)] = v }

// Add increments (i,j) by v.
func (f *F2) Add(i, j int, v float64) { f.data[f.idx(i, j)] += v }

// Fill sets every element (halo included) to v.
func (f *F2) Fill(v float64) {
	data := f.data // a local copy: the range bound proves every index
	for n := range data {
		data[n] = v
	}
}

// Copy duplicates the field.
func (f *F2) Copy() *F2 {
	g := NewF2(f.NX, f.NY, f.H)
	copy(g.data, f.data)
	return g
}

// CopyFrom copies src (same shape) into f.
func (f *F2) CopyFrom(src *F2) {
	if f.NX != src.NX || f.NY != src.NY || f.H != src.H {
		panic("field: CopyFrom shape mismatch")
	}
	copy(f.data, src.data)
}

// Raw exposes the backing slice for kernel sweeps.
func (f *F2) Raw() []float64 { return f.data }

// Row returns the full backing row of j (halo included): element
// [i+H] is cell i for i in [-H, NX+H).  The slice has exactly
// NX+2H elements so bounds checks hoist out of i-loops.
func (f *F2) Row(j int) []float64 {
	off := (j + f.H) * f.stride
	return f.data[off : off+f.stride : off+f.stride]
}

// F3 is a three-dimensional field with lateral halo.
type F3 struct {
	NX, NY, NZ, H int
	stride, plane int
	data          []float64
}

// NewF3 allocates a zero field.
func NewF3(nx, ny, nz, halo int) *F3 {
	if nx < 1 || ny < 1 || nz < 1 || halo < 0 {
		panic(fmt.Sprintf("field: bad F3 dims %dx%dx%d halo %d", nx, ny, nz, halo))
	}
	stride := nx + 2*halo
	plane := stride * (ny + 2*halo)
	return &F3{NX: nx, NY: ny, NZ: nz, H: halo, stride: stride, plane: plane, data: make([]float64, plane*nz)}
}

// idx maps (i,j,k); k has no halo.
func (f *F3) idx(i, j, k int) int { return k*f.plane + (j+f.H)*f.stride + (i + f.H) }

// At returns the value at (i,j,k).
func (f *F3) At(i, j, k int) float64 { return f.data[f.idx(i, j, k)] }

// Set stores v at (i,j,k).
func (f *F3) Set(i, j, k int, v float64) { f.data[f.idx(i, j, k)] = v }

// Add increments (i,j,k) by v.
func (f *F3) Add(i, j, k int, v float64) { f.data[f.idx(i, j, k)] += v }

// Fill sets every element to v.
func (f *F3) Fill(v float64) {
	data := f.data // a local copy: the range bound proves every index
	for n := range data {
		data[n] = v
	}
}

// Raw exposes the backing slice for kernel sweeps.
func (f *F3) Raw() []float64 { return f.data }

// Stride returns the i-run length.
func (f *F3) Stride() int { return f.stride }

// Idx exposes the flat offset computation for kernel sweeps.
func (f *F3) Idx(i, j, k int) int { return f.idx(i, j, k) }

// Row returns the full backing row of (j,k) (lateral halo included):
// element [i+H] is cell (i,j,k) for i in [-H, NX+H).  The slice has
// exactly Stride() elements so bounds checks hoist out of i-loops.
func (f *F3) Row(j, k int) []float64 {
	off := k*f.plane + (j+f.H)*f.stride
	return f.data[off : off+f.stride : off+f.stride]
}

// Level returns an F2 view-copy of level k including halos.
func (f *F3) Level(k int) *F2 {
	g := NewF2(f.NX, f.NY, f.H)
	copy(g.data, f.data[k*f.plane:(k+1)*f.plane])
	return g
}

// LevelInto copies level k into an existing 2-D field (same lateral
// shape), the allocation-free counterpart of Level.
func (f *F3) LevelInto(k int, g *F2) {
	if g.NX != f.NX || g.NY != f.NY || g.H != f.H {
		panic("field: LevelInto shape mismatch")
	}
	copy(g.data, f.data[k*f.plane:(k+1)*f.plane])
}

// SetLevel copies a 2-D field (same lateral shape) into level k.
func (f *F3) SetLevel(k int, g *F2) {
	if g.NX != f.NX || g.NY != f.NY || g.H != f.H {
		panic("field: SetLevel shape mismatch")
	}
	copy(f.data[k*f.plane:(k+1)*f.plane], g.data)
}

// Side identifies a halo face.
type Side int

// The four lateral faces.
const (
	West Side = iota
	East
	South
	North
)

func (s Side) String() string {
	return [...]string{"west", "east", "south", "north"}[s]
}

// Opposite returns the facing side.
func (s Side) Opposite() Side { return [...]Side{East, West, North, South}[s] }

// Slab describes a packed halo region: the edge of width w cells on a
// side, either the interior edge (for sending) or the halo itself (for
// receiving).  For West/East slabs the full interior j-range [0, NY) is
// covered; for South/North slabs the i-range includes the halo corners
// [-H, NX+H), so a West/East-then-South/North exchange sequence fills
// the diagonal corners needed by wide-stencil overcomputation.
type Slab struct {
	Side  Side
	Width int
	Halo  bool // true: the halo region; false: the interior edge
}

// bounds returns the (i0,i1,j0,j1) half-open cell range of the slab on
// a field with the given dims.
func (s Slab) bounds(nx, ny, h int) (i0, i1, j0, j1 int) {
	switch s.Side {
	case West:
		j0, j1 = 0, ny
		if s.Halo {
			i0, i1 = -s.Width, 0
		} else {
			i0, i1 = 0, s.Width
		}
	case East:
		j0, j1 = 0, ny
		if s.Halo {
			i0, i1 = nx, nx+s.Width
		} else {
			i0, i1 = nx-s.Width, nx
		}
	case South:
		i0, i1 = -h, nx+h
		if s.Halo {
			j0, j1 = -s.Width, 0
		} else {
			j0, j1 = 0, s.Width
		}
	case North:
		i0, i1 = -h, nx+h
		if s.Halo {
			j0, j1 = ny, ny+s.Width
		} else {
			j0, j1 = ny-s.Width, ny
		}
	}
	return i0, i1, j0, j1
}

// SlabShape returns the number of contiguous runs and bytes per run of
// the slab on a 2-D field — the layout information the communication
// cost model consumes.
func (f *F2) SlabShape(s Slab) (rows, rowBytes int) {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	return j1 - j0, (i1 - i0) * 8
}

// SlabShape returns the run structure of the slab on a 3-D field.
func (f *F3) SlabShape(s Slab) (rows, rowBytes int) {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	if s.Side == South || s.Side == North {
		// Adjacent j-rows are contiguous within a level.
		return f.NZ, (j1 - j0) * (i1 - i0) * 8
	}
	return f.NZ * (j1 - j0), (i1 - i0) * 8
}

// PackSlab serializes the slab's values.
func (f *F2) PackSlab(s Slab) []byte { return f.PackSlabInto(s, nil) }

// PackSlabInto serializes the slab's values into buf's backing array,
// growing it only if the capacity is insufficient, and returns the
// filled buffer.  Steady-state halo exchange recycles received payloads
// through here so the pack path allocates nothing.
func (f *F2) PackSlabInto(s Slab, buf []byte) []byte {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	if need := (i1 - i0) * (j1 - j0) * 8; cap(buf) < need {
		buf = make([]byte, 0, need)
	} else {
		buf = buf[:0]
	}
	for j := j0; j < j1; j++ {
		row := f.Row(j)
		for i := i0; i < i1; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(row[i+f.H]))
		}
	}
	return buf
}

// UnpackSlab deserializes into the slab's cells.
func (f *F2) UnpackSlab(s Slab, buf []byte) {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	if want := (i1 - i0) * (j1 - j0) * 8; len(buf) != want {
		panic(fmt.Sprintf("field: slab %v size %d, want %d", s, len(buf), want))
	}
	n := 0
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			f.Set(i, j, math.Float64frombits(binary.LittleEndian.Uint64(buf[n:])))
			n += 8
		}
	}
}

// PackSlab serializes the slab's values over all levels.
func (f *F3) PackSlab(s Slab) []byte { return f.PackSlabInto(s, nil) }

// PackSlabInto serializes the slab's values over all levels into buf's
// backing array, growing it only if the capacity is insufficient.
func (f *F3) PackSlabInto(s Slab, buf []byte) []byte {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	if need := (i1 - i0) * (j1 - j0) * f.NZ * 8; cap(buf) < need {
		buf = make([]byte, 0, need)
	} else {
		buf = buf[:0]
	}
	for k := 0; k < f.NZ; k++ {
		for j := j0; j < j1; j++ {
			row := f.Row(j, k)
			for i := i0; i < i1; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(row[i+f.H]))
			}
		}
	}
	return buf
}

// UnpackSlab deserializes into the slab's cells over all levels.
func (f *F3) UnpackSlab(s Slab, buf []byte) {
	i0, i1, j0, j1 := s.bounds(f.NX, f.NY, f.H)
	if want := (i1 - i0) * (j1 - j0) * f.NZ * 8; len(buf) != want {
		panic(fmt.Sprintf("field: slab %v size %d, want %d", s, len(buf), want))
	}
	n := 0
	for k := 0; k < f.NZ; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				f.Set(i, j, k, math.Float64frombits(binary.LittleEndian.Uint64(buf[n:])))
				n += 8
			}
		}
	}
}

// wrapCopy copies the `from` slab of one level-shaped region into the
// `to` slab: a direct float64 move with no byte serialization.  The
// slabs never overlap (interior edge vs halo), so plain copy order is
// safe.
func wrapCopy(data []float64, stride, h, nx, ny int, from, to Slab) {
	si0, si1, sj0, sj1 := from.bounds(nx, ny, h)
	di0, _, dj0, _ := to.bounds(nx, ny, h)
	w := si1 - si0
	for j := sj0; j < sj1; j++ {
		srow := data[(j+h)*stride:]
		drow := data[(j-sj0+dj0+h)*stride:]
		copy(drow[di0+h:di0+h+w], srow[si0+h:si0+h+w])
	}
}

// LocalWrap copies the interior edge straight into the opposite halo,
// for periodic directions collapsed onto a single tile.
func (f *F2) LocalWrap(axisX bool, width int) {
	if axisX {
		wrapCopy(f.data, f.stride, f.H, f.NX, f.NY, Slab{Side: East, Width: width}, Slab{Side: West, Width: width, Halo: true})
		wrapCopy(f.data, f.stride, f.H, f.NX, f.NY, Slab{Side: West, Width: width}, Slab{Side: East, Width: width, Halo: true})
		return
	}
	wrapCopy(f.data, f.stride, f.H, f.NX, f.NY, Slab{Side: North, Width: width}, Slab{Side: South, Width: width, Halo: true})
	wrapCopy(f.data, f.stride, f.H, f.NX, f.NY, Slab{Side: South, Width: width}, Slab{Side: North, Width: width, Halo: true})
}

// LocalWrap for 3-D fields.
func (f *F3) LocalWrap(axisX bool, width int) {
	for k := 0; k < f.NZ; k++ {
		level := f.data[k*f.plane : (k+1)*f.plane]
		if axisX {
			wrapCopy(level, f.stride, f.H, f.NX, f.NY, Slab{Side: East, Width: width}, Slab{Side: West, Width: width, Halo: true})
			wrapCopy(level, f.stride, f.H, f.NX, f.NY, Slab{Side: West, Width: width}, Slab{Side: East, Width: width, Halo: true})
			continue
		}
		wrapCopy(level, f.stride, f.H, f.NX, f.NY, Slab{Side: North, Width: width}, Slab{Side: South, Width: width, Halo: true})
		wrapCopy(level, f.stride, f.H, f.NX, f.NY, Slab{Side: South, Width: width}, Slab{Side: North, Width: width, Halo: true})
	}
}
