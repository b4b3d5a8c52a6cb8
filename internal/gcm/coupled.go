package gcm

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyades/internal/comm"
	"hyades/internal/gcm/field"
	"hyades/internal/gcm/grid"
	"hyades/internal/gcm/kernel"
	"hyades/internal/gcm/physics"
	"hyades/internal/gcm/tile"
)

// CoupledConfig describes a synchronous coupled ocean-atmosphere run
// (paper §5.1): the two isomorphs run concurrently, each on half of
// the cluster's workers, periodically exchanging boundary conditions.
// Both components must use the same lateral grid and decomposition so
// that tile r of the ocean pairs with tile r of the atmosphere.
type CoupledConfig struct {
	Ocean, Atmos Config
	// CoupleEvery is the number of model steps between boundary
	// exchanges.
	CoupleEvery int
	// Physics is the atmospheric physics package (receives the SST).
	Physics *physics.Physics
}

// Validate checks the pairing constraints.
func (c *CoupledConfig) Validate() error {
	if c.Ocean.Decomp != c.Atmos.Decomp {
		return fmt.Errorf("gcm: coupled components need identical decompositions")
	}
	if c.CoupleEvery < 1 {
		return fmt.Errorf("gcm: CoupleEvery = %d", c.CoupleEvery)
	}
	if c.Ocean.Kernel.Dt != c.Atmos.Kernel.Dt {
		return fmt.Errorf("gcm: synchronous coupling needs equal time steps")
	}
	if c.Physics == nil {
		return fmt.Errorf("gcm: coupled run needs an atmospheric physics package")
	}
	return nil
}

// DefaultCoupledConfig returns the paper's production configuration:
// the 2.8125-degree ocean and atmosphere isomorphs coupled once per
// model day.
func DefaultCoupledConfig(d tile.Decomp) CoupledConfig {
	oc := CoarseOceanConfig(d)
	at := CoarseAtmosphereConfig(d)
	ph := physics.New(physics.Default())
	at.Forcing = ph
	return CoupledConfig{
		Ocean:       oc,
		Atmos:       at,
		CoupleEvery: 213, // ~1 model day at dt = 405 s
		Physics:     ph,
	}
}

// withOwnPhysics returns c with a fresh physics instance of the same
// parameters wired in as both the atmosphere's forcing and the
// coupler's SST target.  Every rank's job gets its own: the coupler
// hands an atmosphere rank a tile-local SST.
func (c CoupledConfig) withOwnPhysics() CoupledConfig {
	ph := physics.New(c.Physics.P)
	at := c.Atmos
	at.Forcing = ph
	return CoupledConfig{Ocean: c.Ocean, Atmos: at, CoupleEvery: c.CoupleEvery, Physics: ph}
}

// CoupledOceanForcing carries the atmosphere-supplied surface boundary
// conditions into the ocean's tendencies, combined with the standalone
// wind-stress climatology before the first coupling exchange.
type CoupledOceanForcing struct {
	Base kernel.Forcing // pre-coupling climatological forcing (may be nil)

	// TauX/TauY are kinematic wind stresses (m^2/s^2) at cell centres;
	// Q is the surface heating rate (K/s) for the top level.  All have
	// halo >= 2 and are refreshed by the coupler.
	TauX, TauY, Q *field.F2
	active        bool
}

// AddTendencies implements kernel.Forcing.
func (f *CoupledOceanForcing) AddTendencies(g *grid.Local, s *kernel.State, p *kernel.Params, c *kernel.Counters) {
	if !f.active {
		if f.Base != nil {
			f.Base.AddTendencies(g, s, p, c)
		}
		return
	}
	m := kernel.Halo - 1
	dz0 := g.DZ[0]
	gu, gv, gth := s.GU(), s.GV(), s.GTh()
	for j := -m; j < g.NY+m; j++ {
		for i := -m; i < g.NX+m; i++ {
			if g.HFacW.At(i, j, 0) > 0 && i > -m {
				tau := 0.5 * (f.TauX.At(i-1, j) + f.TauX.At(i, j))
				gu.Add(i, j, 0, tau/(dz0*g.HFacW.At(i, j, 0)))
			}
			if g.HFacS.At(i, j, 0) > 0 && j > -m {
				tau := 0.5 * (f.TauY.At(i, j-1) + f.TauY.At(i, j))
				gv.Add(i, j, 0, tau/(dz0*g.HFacS.At(i, j, 0)))
			}
			if g.HFacC.At(i, j, 0) > 0 {
				gth.Add(i, j, 0, f.Q.At(i, j))
			}
		}
	}
	c.AddPS(int64((g.NY + 2*m) * (g.NX + 2*m) * 10))
}

// Coupled is one worker's half of a coupled simulation.
type Coupled struct {
	Cfg      CoupledConfig
	IsOcean  bool
	M        *Model
	PeerRank int // the paired tile's rank in the GLOBAL rank space

	// ep is the raw (global) endpoint used for the cross-component
	// boundary exchange; the Model inside runs on an offset endpoint
	// confined to its own component's worker group.
	ep comm.Endpoint

	oceanF *CoupledOceanForcing // ocean side
	phys   *physics.Physics     // atmosphere side

	// Per-coupling scratch: sst receives the surface level on the ocean
	// side; xspare recycles the received cross-component payload as the
	// next send buffer (same ownership argument as tile.Halo).
	sst    *field.F2
	xspare []byte
}

// NewCoupled builds the component model for the calling worker.  The
// first half of the ranks run the atmosphere, the second half the
// ocean, mirroring the paper's "each isomorph occupies half of the
// cluster".
func NewCoupled(cfg CoupledConfig, ep comm.Endpoint) (*Coupled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tiles := cfg.Ocean.Decomp.Tiles()
	if ep.N() != 2*tiles {
		return nil, fmt.Errorf("gcm: coupled run needs %d workers, have %d", 2*tiles, ep.N())
	}
	c := &Coupled{Cfg: cfg, ep: ep}
	c.IsOcean = ep.Rank() >= tiles
	if c.IsOcean {
		c.PeerRank = ep.Rank() - tiles
		mcfg := cfg.Ocean
		nx, ny := mcfg.Decomp.TileSize()
		c.oceanF = &CoupledOceanForcing{
			Base: mcfg.Forcing,
			TauX: field.NewF2(nx, ny, 2),
			TauY: field.NewF2(nx, ny, 2),
			Q:    field.NewF2(nx, ny, 2),
		}
		mcfg.Forcing = c.oceanF
		m, err := newOffset(mcfg, ep, tiles)
		if err != nil {
			return nil, err
		}
		c.M = m
		return c, nil
	}
	c.PeerRank = ep.Rank() + tiles
	mcfg := cfg.Atmos
	c.phys = cfg.Physics
	m, err := newOffset(mcfg, ep, 0)
	if err != nil {
		return nil, err
	}
	c.M = m
	return c, nil
}

// newOffset builds a Model whose tile index is the worker rank minus
// the component's base rank, over the component's private worker group.
func newOffset(cfg Config, ep comm.Endpoint, base int) (*Model, error) {
	return New(cfg, &offsetEndpoint{Endpoint: ep, base: base, n: cfg.Decomp.Tiles()})
}

// offsetEndpoint presents a contiguous sub-range of ranks as a
// self-contained worker group, translating ranks for the tile layer.
// Global sums and barriers stay component-local by spanning only the
// group... which the underlying butterfly cannot do, so they are
// implemented pairwise via the component's rank-0 tree through
// Exchange.  For the coupled configurations used here the group is a
// contiguous block, and the communication costs remain representative.
type offsetEndpoint struct {
	comm.Endpoint
	base int
	n    int

	// spare recycles the 8-byte payload received by the previous
	// pairwise exchange as the next send buffer; a received payload is
	// exclusively ours, and the comm layer's sequence-number dup-drop
	// makes rewriting a retransmit-retained buffer safe.
	spare []byte
}

func (o *offsetEndpoint) Rank() int { return o.Endpoint.Rank() - o.base }
func (o *offsetEndpoint) N() int    { return o.n }

func (o *offsetEndpoint) Exchange(peer int, send []byte, layout comm.Block) []byte {
	return o.Endpoint.Exchange(peer+o.base, send, layout)
}

// encF64 serializes v little-endian into the recycled spare buffer (or
// a fresh one on the first call), transferring its ownership to the
// returned slice.
func (o *offsetEndpoint) encF64(v float64) []byte {
	b := o.spare
	o.spare = nil
	if cap(b) < 8 {
		b = make([]byte, 8)
	} else {
		b = b[:8]
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// decF64 deserializes a little-endian float64.
func decF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// gsumExchange is Exchange plus payload recycling: the received 8-byte
// buffer becomes the next encF64 target.
func (o *offsetEndpoint) gsumExchange(peer int, v float64, layout comm.Block) []byte {
	got := o.Exchange(peer, o.encF64(v), layout)
	o.spare = got
	return got
}

// GlobalSum reduces over the component's worker group only, using a
// binomial tree of pairwise exchanges (8-byte payloads).  Both sides of
// a tree edge call Exchange: the sender's payload is its sum, and the
// receiver's is its own partial on the way up and 0 on the way down.
func (o *offsetEndpoint) GlobalSum(x float64) float64 {
	layout := comm.Block{Rows: 1, RowBytes: 8, Cached: true}
	sum := x
	for s := range (comm.BinomialTree{Me: o.Rank(), N: o.n}).Steps {
		switch s.Kind {
		case comm.SendUp, comm.SendDown:
			o.gsumExchange(s.Peer, sum, layout)
		case comm.RecvAdd:
			sum += decF64(o.gsumExchange(s.Peer, sum, layout))
		case comm.RecvResult:
			sum = decF64(o.gsumExchange(s.Peer, 0, layout))
		}
	}
	return sum
}

func (o *offsetEndpoint) Barrier() { o.GlobalSum(0) }

// couple performs one boundary-condition exchange with the paired tile
// of the other component.
func (c *Coupled) couple() {
	nx, ny := c.M.G.NX, c.M.G.NY
	layout := comm.Block{Rows: 1, RowBytes: nx * ny * 8, Cached: false}
	if c.IsOcean {
		// Send SST (surface theta, level 0), receive (tauX, tauY, Q).
		if c.sst == nil {
			c.sst = field.NewF2(nx, ny, kernel.Halo)
		}
		c.M.S.Theta.LevelInto(0, c.sst)
		got := c.ep.Exchange(c.PeerRank, packF2Into(c.sst, nx, c.takeSpare()), layout)
		unpackInto(c.oceanF.TauX, got[:nx*ny*8], nx, ny)
		unpackInto(c.oceanF.TauY, got[nx*ny*8:2*nx*ny*8], nx, ny)
		unpackInto(c.oceanF.Q, got[2*nx*ny*8:], nx, ny)
		c.xspare = got
		c.M.Halo.Update2(c.oceanF.TauX, 2)
		c.M.Halo.Update2(c.oceanF.TauY, 2)
		c.M.Halo.Update2(c.oceanF.Q, 2)
		c.oceanF.active = true
		return
	}
	// Atmosphere: compute surface fluxes from the lowest level and the
	// current SST estimate, send them, receive the new SST.
	g, s := c.M.G, c.M.S
	k := g.NZ - 1
	p := c.phys.P
	buf := c.takeSpare()
	if cap(buf) < 3*nx*ny*8 {
		buf = make([]byte, 0, 3*nx*ny*8)
	} else {
		buf = buf[:0]
	}
	// tauX at centres.
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			u := 0.5 * (s.U.At(i, j, k) + s.U.At(i+1, j, k))
			v := 0.5 * (s.V.At(i, j, k) + s.V.At(i, j+1, k))
			speed := math.Hypot(u, v)
			buf = appendF64(buf, p.CDrag*speed*u*1e-3) // air/water density ratio
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			u := 0.5 * (s.U.At(i, j, k) + s.U.At(i+1, j, k))
			v := 0.5 * (s.V.At(i, j, k) + s.V.At(i, j+1, k))
			speed := math.Hypot(u, v)
			buf = appendF64(buf, p.CDrag*speed*v*1e-3)
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			sst := 15.0
			if c.phys.SST != nil {
				sst = c.phys.SST.At(i, j)
			}
			airT := s.Theta.At(i, j, k) - 273.15
			// Ocean surface heating (K/s): drives the SST towards the
			// overlying air temperature.
			buf = appendF64(buf, p.CHeat*(airT-sst)*10)
		}
	}
	got := c.ep.Exchange(c.PeerRank, buf, layout)
	if c.phys.SST == nil {
		c.phys.SST = field.NewF2(nx, ny, 2)
	}
	unpackInto(c.phys.SST, got, nx, ny)
	c.xspare = got
	c.M.Halo.Update2(c.phys.SST, 2)
}

// takeSpare transfers ownership of the recycled coupling payload.
func (c *Coupled) takeSpare() []byte {
	b := c.xspare
	c.xspare = nil
	return b
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func packF2Into(f *field.F2, nx int, buf []byte) []byte {
	return f.PackSlabInto(field.Slab{Side: field.West, Width: nx}, buf)
}

func unpackInto(dst *field.F2, buf []byte, nx, ny int) {
	dst.UnpackSlab(field.Slab{Side: field.West, Width: nx}, buf)
}

// Run advances the coupled component, exchanging boundary conditions
// every CoupleEvery steps (both components step in lock-step virtual
// time, so the exchanges rendezvous naturally).
func (c *Coupled) Run(steps int) {
	for i := 0; i < steps; i++ {
		if c.M.Steps%c.Cfg.CoupleEvery == 0 {
			c.couple()
		}
		c.M.Step()
	}
}
