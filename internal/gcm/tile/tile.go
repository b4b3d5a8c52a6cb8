// Package tile implements the flexible tiled domain decomposition of
// the MIT GCM (paper §4, Fig. 5): the global lateral domain is split
// into Px x Py rectangular tiles, each owned by one worker, with halo
// regions kept consistent by the exchange primitive.
//
// Halo updates run in two phases — west/east first, then north/south
// spanning the corner columns — so diagonal halo cells are filled
// without explicit corner exchanges, as wide-stencil overcomputation
// requires.  Within each phase, pairwise exchanges are ordered red-black
// by tile coordinate, which keeps the rendezvous protocol deadlock-free.
package tile

import (
	"fmt"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
)

// Decomp describes the global tiling.
type Decomp struct {
	NXg, NYg             int // global lateral grid
	Px, Py               int // tiles in x and y
	PeriodicX, PeriodicY bool
}

// Validate checks divisibility and the deadlock-freedom constraint on
// periodic rings (even tile count, or a single tile).
func (d Decomp) Validate() error {
	if d.Px < 1 || d.Py < 1 {
		return fmt.Errorf("tile: bad decomposition %dx%d", d.Px, d.Py)
	}
	if d.NXg%d.Px != 0 || d.NYg%d.Py != 0 {
		return fmt.Errorf("tile: %dx%d grid not divisible by %dx%d tiles", d.NXg, d.NYg, d.Px, d.Py)
	}
	if d.PeriodicX && d.Px > 1 && d.Px%2 != 0 {
		return fmt.Errorf("tile: periodic x ring of %d tiles must be even", d.Px)
	}
	if d.PeriodicY && d.Py > 1 && d.Py%2 != 0 {
		return fmt.Errorf("tile: periodic y ring of %d tiles must be even", d.Py)
	}
	return nil
}

// Tiles returns the worker count.
func (d Decomp) Tiles() int { return d.Px * d.Py }

// TileSize returns the per-tile interior dimensions.
func (d Decomp) TileSize() (nx, ny int) { return d.NXg / d.Px, d.NYg / d.Py }

// CoordOf maps a rank to tile coordinates.
func (d Decomp) CoordOf(rank int) (tx, ty int) { return rank % d.Px, rank / d.Px }

// RankOf maps tile coordinates to a rank.
func (d Decomp) RankOf(tx, ty int) int { return ty*d.Px + tx }

// Origin returns the global cell offset of a tile.
func (d Decomp) Origin(rank int) (i0, j0 int) {
	nx, ny := d.TileSize()
	tx, ty := d.CoordOf(rank)
	return tx * nx, ty * ny
}

// Halo binds a worker's endpoint to its tile position and performs
// halo updates.
type Halo struct {
	EP     comm.Endpoint
	D      Decomp
	tx, ty int

	// scratch recycles received exchange payloads as future pack
	// targets.  Send-buffer ownership transfers to the comm layer
	// (reliable-mode retransmission may retain it), but a received
	// payload is exclusively ours once Exchange returns, and the comm
	// layer's sequence-number dup-drop makes rewriting a retained
	// retransmit payload safe — so steady-state halo traffic packs
	// into recycled buffers and allocates nothing.
	scratch [][]byte
}

// grab pops a recycled buffer with capacity ≥ need, or returns nil.
func (h *Halo) grab(need int) []byte {
	for i, b := range h.scratch {
		if cap(b) >= need {
			last := len(h.scratch) - 1
			h.scratch[i] = h.scratch[last]
			h.scratch[last] = nil
			h.scratch = h.scratch[:last]
			return b
		}
	}
	return nil
}

// keep retains a consumed receive payload for later packing.  The list
// stays small: steady state circulates one buffer per slab size class.
func (h *Halo) keep(b []byte) {
	if len(h.scratch) < 8 {
		h.scratch = append(h.scratch, b)
	}
}

// NewHalo builds the halo updater for the endpoint's rank.
func NewHalo(ep comm.Endpoint, d Decomp) (*Halo, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if ep.N() != d.Tiles() {
		return nil, fmt.Errorf("tile: %d workers for %d tiles", ep.N(), d.Tiles())
	}
	tx, ty := d.CoordOf(ep.Rank())
	return &Halo{EP: ep, D: d, tx: tx, ty: ty}, nil
}

// neighbour returns the rank across the given side, or -1 at a wall.
// A periodic single-tile axis returns the tile's own rank.
func (h *Halo) neighbour(s field.Side) int {
	tx, ty := h.tx, h.ty
	switch s {
	case field.West:
		tx--
	case field.East:
		tx++
	case field.South:
		ty--
	case field.North:
		ty++
	}
	if tx < 0 || tx >= h.D.Px {
		if !h.D.PeriodicX {
			return -1
		}
		tx = (tx + h.D.Px) % h.D.Px
	}
	if ty < 0 || ty >= h.D.Py {
		if !h.D.PeriodicY {
			return -1
		}
		ty = (ty + h.D.Py) % h.D.Py
	}
	return h.D.RankOf(tx, ty)
}

// exchanger abstracts F2/F3 slab packing so one update routine serves
// both field ranks.
type exchanger interface {
	PackSlabInto(s field.Slab, buf []byte) []byte
	UnpackSlab(s field.Slab, buf []byte)
	SlabShape(s field.Slab) (rows, rowBytes int)
	LocalWrap(axisX bool, width int)
}

// Update2 refreshes a 2-D field's halo to the given width.  DS-phase
// slabs are small and cache-resident.
func (h *Halo) Update2(f *field.F2, width int) {
	h.update(f, width, true)
}

// Update3 refreshes a 3-D field's halo.  PS-phase slabs sweep large
// arrays, so pack copies run at miss rates.
func (h *Halo) Update3(f *field.F3, width int) {
	h.update(f, width, false)
}

func (h *Halo) update(f exchanger, width int, cached bool) {
	h.axis(f, width, cached, true)  // west/east first
	h.axis(f, width, cached, false) // then north/south spans the corners
}

// axis performs the two pairwise exchanges of one direction phase.
func (h *Halo) axis(f exchanger, width int, cached, xAxis bool) {
	var lo, hi field.Side
	var coord int
	if xAxis {
		lo, hi, coord = field.West, field.East, h.tx
	} else {
		lo, hi, coord = field.South, field.North, h.ty
	}
	nLo, nHi := h.neighbour(lo), h.neighbour(hi)
	self := h.EP.Rank()
	if nLo == self && nHi == self {
		f.LocalWrap(xAxis, width)
		return
	}
	// Red-black pairing: even tiles talk high-side first.
	order := []field.Side{hi, lo}
	if coord%2 == 1 {
		order = []field.Side{lo, hi}
	}
	for _, side := range order {
		peer := h.neighbour(side)
		if peer < 0 {
			continue
		}
		edge := field.Slab{Side: side, Width: width}
		halo := field.Slab{Side: side, Width: width, Halo: true}
		rows, rowBytes := f.SlabShape(edge)
		layout := comm.Block{Rows: rows, RowBytes: rowBytes, Cached: cached}
		// Exchange pairs point-to-point by topology: a tile that wraps
		// onto itself has no peer waiting, so skipping it cannot strand
		// another rank.
		got := h.EP.Exchange(peer, f.PackSlabInto(edge, h.grab(rows*rowBytes)), layout)
		f.UnpackSlab(halo, got)
		h.keep(got)
	}
}

// Gather2 assembles a global 2-D field (interior only, halo 0) on rank
// 0; other ranks return nil.  Used by diagnostics and figure output.
func (h *Halo) Gather2(f *field.F2) *field.F2 {
	nx, ny := h.D.TileSize()
	layout := comm.Block{Rows: 1, RowBytes: nx * ny * 8, Cached: false}
	mine := f.PackSlab(field.Slab{Side: field.West, Width: nx}) // whole interior
	if h.EP.Rank() != 0 {
		h.EP.Exchange(0, mine, layout)
		return nil
	}
	global := field.NewF2(h.D.NXg, h.D.NYg, 0)
	place := func(rank int, buf []byte) {
		i0, j0 := h.D.Origin(rank)
		t := field.NewF2(nx, ny, 0)
		t.UnpackSlab(field.Slab{Side: field.West, Width: nx}, buf)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				global.Set(i0+i, j0+j, t.At(i, j))
			}
		}
	}
	place(0, mine)
	for r := 1; r < h.EP.N(); r++ {
		place(r, h.EP.Exchange(r, mine, layout))
	}
	return global
}

// Gather3Level gathers one level of a 3-D field on rank 0.
func (h *Halo) Gather3Level(f *field.F3, k int) *field.F2 {
	return h.Gather2(f.Level(k))
}
